// Table 9 — memory size of cached objects (bytes).
//
// Paper:                 Spelling   CachedPage  GoogleSearch
//   XML message              520       5338         5024
//   Java serialized form      21       3611         1914
//   Java object               28       3600          464
//
// Expected shape: XML much larger than serialized/object forms EXCEPT for
// CachedPage, where a single byte array dominates every representation
// ("the size of the object is not very different for the different data
// representations").
//
// The "Java object" row and, beyond the paper, the "SAX events sequence"
// row (the compact arena recording the cache stores) are billed by the
// one footprint rule of util/mem_footprint.hpp: inline bytes plus every
// owned heap block at its requested size plus 16 B, which
// tests/core/footprint_allocator_test.cpp checks against the allocator.
// The XML and serialized rows are payload sizes.  All rows are also
// written to BENCH_table9.json (row -> bytes_per_entry) for cross-PR
// tracking.
#include <cstdio>

#include "bench/common.hpp"
#include "reflect/algorithms.hpp"
#include "reflect/serialize.hpp"

int main() {
  using namespace wsc;
  using namespace wsc::bench;

  std::vector<OperationCase> cases = google_cases();

  std::printf("Table 9: Memory size of cached objects (bytes)\n");
  std::printf("%-22s  %18s  %18s  %18s\n", "", "SpellingSuggestion",
              "CachedPage", "GoogleSearch");
  std::printf("%-22s  %10s  %6s  %10s  %6s  %10s  %6s\n", "representation",
              "measured", "paper", "measured", "paper", "measured", "paper");

  const int paper_xml[3] = {520, 5338, 5024};
  const int paper_ser[3] = {21, 3611, 1914};
  const int paper_obj[3] = {28, 3600, 464};

  BenchJson json;
  std::size_t xml[3], ser[3], obj[3], sax[3];
  for (int i = 0; i < 3; ++i) {
    const OperationCase& c = cases[static_cast<std::size_t>(i)];
    xml[i] = c.response_xml.size();
    ser[i] = reflect::serialize(c.response_object).size();
    obj[i] = reflect::memory_size(c.response_object);
    sax[i] = c.response_events.memory_size();
    json.add("XML message/" + c.op_name, "bytes_per_entry",
             static_cast<double>(xml[i]));
    json.add("Serialized form/" + c.op_name, "bytes_per_entry",
             static_cast<double>(ser[i]));
    json.add("Application object/" + c.op_name, "bytes_per_entry",
             static_cast<double>(obj[i]));
    json.add("SAX events sequence/" + c.op_name, "bytes_per_entry",
             static_cast<double>(sax[i]));
  }

  auto print_row = [&](const char* label, const std::size_t* measured,
                       const int* paper) {
    std::printf("%-22s", label);
    for (int i = 0; i < 3; ++i) {
      if (paper)
        std::printf("  %10zu  %6d", measured[i], paper[i]);
      else
        std::printf("  %10zu  %6s", measured[i], "-");
    }
    std::printf("\n");
  };
  print_row("XML message", xml, paper_xml);
  print_row("Java serialized form", ser, paper_ser);
  print_row("Java object", obj, paper_obj);
  print_row("SAX events sequence", sax, nullptr);

  // Shape checks: XML dominates the serialized form for Spelling and
  // GoogleSearch and exceeds the in-memory object; all three
  // representations are comparable for CachedPage.  (The C++ object row is
  // fatter relative to the paper's Java numbers: every std::string field
  // carries a 32-byte handle, where the paper's instrument reported only
  // payload bytes — see EXPERIMENTS.md.)
  bool ok = xml[0] > 5 * ser[0] && xml[2] > 2 * ser[2] && xml[2] > obj[2];
  double page_ratio = static_cast<double>(xml[1]) / static_cast<double>(ser[1]);
  ok = ok && page_ratio < 2.0;  // base64 expansion only (4/3 + envelope)
  std::printf(
      "\nshape check (XML >> object except byte-array CachedPage): %s\n",
      ok ? "PASS" : "FAIL");

  json.write_file("BENCH_table9.json");
  return ok ? 0 : 1;
}
