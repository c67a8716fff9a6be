// Field offsets: every reflective field walk (copy, equality, toString,
// memory accounting, binary and SOAP encode/decode) addresses a member as
// `FieldInfo::at(obj)`, i.e. the instance address plus the byte offset
// StructBuilder::field read off a probe instance.  This suite checks that
// address against the language's own `&(obj.*member)` for every field of
// every registered service struct and shared test struct, and that no
// registered field goes unchecked.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "reflect/registry.hpp"
#include "services/amazon/types.hpp"
#include "services/google/types.hpp"
#include "services/news/service.hpp"
#include "services/quotes/service.hpp"
#include "tests/reflect/test_types.hpp"

namespace wsc::reflect {
namespace {

/// Checks fields of one registered struct T against member pointers and
/// records which names were covered.
template <typename T>
class OffsetCheck {
 public:
  OffsetCheck() : type_(type_of<T>()) {}

  template <typename M>
  OffsetCheck& field(const std::string& name, M T::* member) {
    const FieldInfo* f = type_.field(name);
    EXPECT_NE(f, nullptr) << type_.name << "." << name << " not registered";
    if (!f) return *this;
    EXPECT_EQ(f->type, &type_of<M>()) << type_.name << "." << name;
    EXPECT_EQ(f->at(static_cast<void*>(&obj_)),
              static_cast<void*>(&(obj_.*member)))
        << type_.name << "." << name;
    const T& cobj = obj_;
    EXPECT_EQ(f->at(static_cast<const void*>(&cobj)),
              static_cast<const void*>(&(cobj.*member)))
        << type_.name << "." << name;
    checked_.insert(name);
    return *this;
  }

  /// Every registered field of T was checked above.
  void covers_all() const {
    std::set<std::string> registered;
    for (const FieldInfo& f : type_.fields) registered.insert(f.name);
    EXPECT_EQ(checked_, registered) << type_.name;
  }

 private:
  const TypeInfo& type_;
  T obj_{};
  std::set<std::string> checked_;
};

TEST(FieldOffsetTest, GoogleStructs) {
  using namespace services::google;
  ensure_google_types();
  OffsetCheck<DirectoryCategory>()
      .field("fullViewableName", &DirectoryCategory::fullViewableName)
      .field("specialEncoding", &DirectoryCategory::specialEncoding)
      .covers_all();
  OffsetCheck<ResultElement>()
      .field("summary", &ResultElement::summary)
      .field("URL", &ResultElement::URL)
      .field("snippet", &ResultElement::snippet)
      .field("title", &ResultElement::title)
      .field("cachedSize", &ResultElement::cachedSize)
      .field("relatedInformationPresent",
             &ResultElement::relatedInformationPresent)
      .field("hostName", &ResultElement::hostName)
      .field("directoryCategory", &ResultElement::directoryCategory)
      .field("directoryTitle", &ResultElement::directoryTitle)
      .field("indexInSeries", &ResultElement::indexInSeries)
      .covers_all();
  OffsetCheck<GoogleSearchResult>()
      .field("documentFiltering", &GoogleSearchResult::documentFiltering)
      .field("searchComments", &GoogleSearchResult::searchComments)
      .field("estimatedTotalResultsCount",
             &GoogleSearchResult::estimatedTotalResultsCount)
      .field("estimateIsExact", &GoogleSearchResult::estimateIsExact)
      .field("resultElements", &GoogleSearchResult::resultElements)
      .field("searchQuery", &GoogleSearchResult::searchQuery)
      .field("startIndex", &GoogleSearchResult::startIndex)
      .field("endIndex", &GoogleSearchResult::endIndex)
      .field("searchTips", &GoogleSearchResult::searchTips)
      .field("directoryCategories", &GoogleSearchResult::directoryCategories)
      .field("searchTime", &GoogleSearchResult::searchTime)
      .covers_all();
}

TEST(FieldOffsetTest, AmazonStructs) {
  using namespace services::amazon;
  ensure_amazon_types();
  OffsetCheck<ProductSummary>()
      .field("asin", &ProductSummary::asin)
      .field("title", &ProductSummary::title)
      .field("manufacturer", &ProductSummary::manufacturer)
      .field("listPrice", &ProductSummary::listPrice)
      .field("salesRank", &ProductSummary::salesRank)
      .covers_all();
  OffsetCheck<AmazonSearchResult>()
      .field("totalResults", &AmazonSearchResult::totalResults)
      .field("products", &AmazonSearchResult::products)
      .covers_all();
  OffsetCheck<CartItem>()
      .field("asin", &CartItem::asin)
      .field("quantity", &CartItem::quantity)
      .field("unitPrice", &CartItem::unitPrice)
      .covers_all();
  OffsetCheck<ShoppingCart>()
      .field("cartId", &ShoppingCart::cartId)
      .field("items", &ShoppingCart::items)
      .field("subtotal", &ShoppingCart::subtotal)
      .covers_all();
  OffsetCheck<TransactionDetails>()
      .field("transactionId", &TransactionDetails::transactionId)
      .field("status", &TransactionDetails::status)
      .field("total", &TransactionDetails::total)
      .covers_all();
}

TEST(FieldOffsetTest, NewsAndQuotesStructs) {
  services::news::ensure_news_types();
  services::quotes::ensure_quote_types();
  using services::news::Headline;
  using services::news::NewsFeed;
  using services::quotes::Quote;
  using services::quotes::QuoteBatch;
  OffsetCheck<Headline>()
      .field("title", &Headline::title)
      .field("source", &Headline::source)
      .field("url", &Headline::url)
      .field("ageMinutes", &Headline::ageMinutes)
      .covers_all();
  OffsetCheck<NewsFeed>()
      .field("topic", &NewsFeed::topic)
      .field("headlines", &NewsFeed::headlines)
      .covers_all();
  OffsetCheck<Quote>()
      .field("symbol", &Quote::symbol)
      .field("last", &Quote::last)
      .field("change", &Quote::change)
      .field("volume", &Quote::volume)
      .field("quoteAgeSeconds", &Quote::quoteAgeSeconds)
      .covers_all();
  OffsetCheck<QuoteBatch>().field("quotes", &QuoteBatch::quotes).covers_all();
}

TEST(FieldOffsetTest, SharedTestStructs) {
  using namespace testing;
  ensure_test_types();
  OffsetCheck<Point>()
      .field("x", &Point::x)
      .field("y", &Point::y)
      .field("label", &Point::label)
      .covers_all();
  OffsetCheck<Polygon>()
      .field("name", &Polygon::name)
      .field("points", &Polygon::points)
      .field("tags", &Polygon::tags)
      .field("weight", &Polygon::weight)
      .field("closed", &Polygon::closed)
      .covers_all();
  OffsetCheck<NoClone>().field("payload", &NoClone::payload).covers_all();
  OffsetCheck<NoSerialize>().field("ticket", &NoSerialize::ticket).covers_all();
  OffsetCheck<Opaque>().covers_all();  // not_bean: no registered fields
  OffsetCheck<Wrapper>()
      .field("inner", &Wrapper::inner)
      .field("note", &Wrapper::note)
      .covers_all();
  OffsetCheck<Token>().field("value", &Token::value).covers_all();
}

}  // namespace
}  // namespace wsc::reflect
