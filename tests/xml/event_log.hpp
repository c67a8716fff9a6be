// Test-side reference for SAX event streams: a ContentHandler that logs
// every field of every event as one line, so a live parse and a replayed
// recording can be compared event for event with readable diffs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "xml/sax.hpp"
#include "xml/sax_parser.hpp"

namespace wsc::xml {

class EventLog final : public ContentHandler {
 public:
  void start_document() override { lines_.emplace_back("start-document"); }
  void end_document() override { lines_.emplace_back("end-document"); }
  void start_element(const QName& name, const Attributes& attrs) override {
    std::string line = "start " + describe(name);
    for (const Attribute& a : attrs)
      line += " @" + describe(a.name) + "=" + field(a.value);
    lines_.push_back(std::move(line));
  }
  void end_element(const QName& name) override {
    lines_.push_back("end " + describe(name));
  }
  void characters(std::string_view text) override {
    lines_.push_back("characters " + field(text));
  }

  const std::vector<std::string>& lines() const noexcept { return lines_; }

 private:
  // Length-prefixed, so no field content can forge a separator.
  static std::string field(std::string_view s) {
    return std::to_string(s.size()) + ":" + std::string(s);
  }
  static std::string describe(const QName& q) {
    return "uri=" + field(q.uri) + " local=" + field(q.local) +
           " raw=" + field(q.raw);
  }

  std::vector<std::string> lines_;
};

/// The event log of a live parse of `doc`.
inline std::vector<std::string> log_parse(std::string_view doc) {
  EventLog log;
  SaxParser{}.parse(doc, log);
  return log.lines();
}

/// The event log of replaying `source` (e.g. a recorded sequence).
inline std::vector<std::string> log_replay(const EventSource& source) {
  EventLog log;
  source.deliver(log);
  return log.lines();
}

}  // namespace wsc::xml
