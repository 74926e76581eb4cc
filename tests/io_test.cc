#include "src/region/io.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/invariant/canonical.h"
#include "src/region/fixtures.h"

namespace topodb {
namespace {

TEST(IoTest, WriteParseRoundTripPreservesExtents) {
  for (const SpatialInstance& instance :
       {Fig1aInstance(), Fig1bInstance(), Fig1cInstance(), Fig1dInstance(),
        Fig6Instance(), Fig7bInstance(), NestedInstance()}) {
    std::string text = WriteInstanceText(instance);
    Result<SpatialInstance> back = ParseInstanceText(text);
    ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << text;
    ASSERT_EQ(back->names(), instance.names());
    for (const auto& name : instance.names()) {
      const Region* original = *instance.ext(name);
      const Region* parsed = *back->ext(name);
      EXPECT_EQ(parsed->boundary().vertices(),
                original->boundary().vertices())
          << name;
    }
    // And therefore the invariants are identical.
    EXPECT_TRUE(*Isomorphic(*ComputeInvariant(instance),
                           *ComputeInvariant(*back)));
  }
}

TEST(IoTest, ParsesRationalAndDecimalCoordinates) {
  Result<SpatialInstance> instance = ParseInstanceText(
      "# a comment\n"
      "\n"
      "A: (0 0, 1/2 0, 1/2 1/3, 0 1/3)\n"
      "B: (2.5 0, 3 0, 3 -0.25, 2.5 -0.25)\n");
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  EXPECT_EQ(instance->size(), 2u);
  const Region* a = *instance->ext("A");
  EXPECT_EQ(a->BoundingBox().max, Point(Rational(1, 2), Rational(1, 3)));
  const Region* b = *instance->ext("B");
  EXPECT_EQ(b->BoundingBox().min, Point(Rational(5, 2), Rational(-1, 4)));
  // Classes re-derived structurally.
  EXPECT_EQ(a->declared_class(), RegionClass::kRect);
}

TEST(IoTest, WriterEmitsParsableHeaderlessText) {
  std::string text = WriteInstanceText(Fig1cInstance());
  EXPECT_NE(text.find("A: ("), std::string::npos);
  EXPECT_NE(text.find("B: ("), std::string::npos);
}

TEST(IoTest, ParseErrorsAreLineNumbered) {
  Result<SpatialInstance> missing_colon = ParseInstanceText("A (0 0, 1 0)\n");
  EXPECT_FALSE(missing_colon.ok());
  EXPECT_NE(missing_colon.status().message().find("line 1"),
            std::string::npos);
  Result<SpatialInstance> bad_coord =
      ParseInstanceText("A: (0 0, 1 0, x 1)\n");
  EXPECT_FALSE(bad_coord.ok());
  Result<SpatialInstance> bad_vertex =
      ParseInstanceText("ok: (0 0, 4 0, 4 4)\nB: (0 0 7, 1 0, 1 1)\n");
  EXPECT_FALSE(bad_vertex.ok());
  EXPECT_NE(bad_vertex.status().message().find("line 2"), std::string::npos);
  Result<SpatialInstance> no_parens = ParseInstanceText("A: 0 0, 1 0, 1 1\n");
  EXPECT_FALSE(no_parens.ok());
  Result<SpatialInstance> empty_name = ParseInstanceText(": (0 0, 1 0, 1 1)\n");
  EXPECT_FALSE(empty_name.ok());
}

TEST(IoTest, RejectsNamesTheWriterCouldNotRoundTrip) {
  // A tab inside the name survives Strip but would not round-trip; the
  // parser reports it as an invalid name with its line number.
  Result<SpatialInstance> tabbed =
      ParseInstanceText("ok: (0 0, 4 0, 4 4)\na\tb: (0 0, 4 0, 4 4)\n");
  EXPECT_FALSE(tabbed.ok());
  EXPECT_NE(tabbed.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(tabbed.status().message().find("invalid region name"),
            std::string::npos);
  // AddRegion refuses the names WriteInstanceText cannot represent, so a
  // serializable instance can never be constructed with them.
  SpatialInstance instance;
  EXPECT_FALSE(
      instance.AddRegion("a:b", *Region::MakeRect(Point(0, 0), Point(1, 1)))
          .ok());
  EXPECT_FALSE(
      instance.AddRegion("a\nb", *Region::MakeRect(Point(0, 0), Point(1, 1)))
          .ok());
}

TEST(IoTest, RejectsInvalidPolygons) {
  // Bowtie.
  EXPECT_FALSE(ParseInstanceText("A: (0 0, 2 2, 2 0, 0 2)\n").ok());
  // Too few vertices.
  EXPECT_FALSE(ParseInstanceText("A: (0 0, 1 0)\n").ok());
  // Duplicate names.
  EXPECT_FALSE(
      ParseInstanceText("A: (0 0, 4 0, 4 4)\nA: (8 8, 9 8, 9 9)\n").ok());
}

// Each invalid polygon fails with the parser's line-numbered ParseError,
// naming the region and the polygon check that rejected it.
TEST(IoTest, InvalidPolygonsFailWithTheirExactStatus) {
  const struct {
    const char* text;
    const char* status;
  } cases[] = {
      {"A: (0 0, 2 2, 2 0, 0 2)\n",
       "ParseError: line 1: A: polygon boundary self-intersects"},
      {"A: (0 0, 1 0)\n",
       "ParseError: line 1: A: polygon needs at least 3 vertices"},
      {"A: (0 0, 4 0, 4 0, 4 4)\n",
       "ParseError: line 1: A: polygon has a zero-length edge"},
      // Zero area: the boundary folds back on itself.
      {"A: (0 0, 2 0, 4 0)\n", "ParseError: line 1: A: polygon edges overlap"},
      {"ok: (0 0, 4 0, 4 4)\nbow: (0 0, 2 2, 2 0, 0 2)\n",
       "ParseError: line 2: bow: polygon boundary self-intersects"},
  };
  for (const auto& c : cases) {
    const Result<SpatialInstance> parsed = ParseInstanceText(c.text);
    ASSERT_FALSE(parsed.ok()) << c.text;
    EXPECT_EQ(parsed.status().ToString(), c.status) << c.text;
  }
}

// One malformed input per row: the diagnostic must carry the exact
// (post-split) line number and a recognizable message fragment, whatever
// the line-ending convention or the size of the offending token.
TEST(IoTest, MalformedInputsProduceBoundedLineAccurateDiagnostics) {
  const std::string huge_literal(5000, '1');
  struct Case {
    const char* name;
    std::string text;
    const char* expect_line;
    const char* expect_fragment;
  };
  const std::vector<Case> cases = {
      {"crlf line endings",
       "A: (0 0, 4 0, 4 4)\r\nB: (0 0 7, 1 0, 1 1)\r\n",
       "line 2", "vertex"},
      {"bare cr line endings",
       "A: (0 0, 4 0, 4 4)\rB: (0 0, 1 0)\r",
       "line 2", ""},
      {"crlf after blank and comment",
       "# header\r\n\r\nA: (0 0, 4 0, 4 4)\r\nA (missing colon)\r\n",
       "line 4", ""},
      {"duplicate region name",
       "A: (0 0, 4 0, 4 4)\nB: (8 8, 9 8, 9 9)\nA: (20 20, 21 20, 21 21)\n",
       "line 3", "duplicate region name 'A'"},
      {"duplicate under crlf",
       "A: (0 0, 4 0, 4 4)\r\nA: (8 8, 9 8, 9 9)\r\n",
       "line 2", "duplicate region name 'A'"},
      {"oversized coordinate literal",
       "A: (0 0, " + huge_literal + " 0, 1 1)\n",
       "line 1", "coordinate literal exceeds"},
  };
  for (const Case& c : cases) {
    Result<SpatialInstance> parsed = ParseInstanceText(c.text);
    ASSERT_FALSE(parsed.ok()) << c.name;
    const std::string message = parsed.status().ToString();
    EXPECT_NE(message.find(c.expect_line), std::string::npos)
        << c.name << ": " << message;
    EXPECT_NE(message.find(c.expect_fragment), std::string::npos)
        << c.name << ": " << message;
    // Diagnostics stay bounded even when the input token is enormous:
    // long tokens are truncated to a snippet, never echoed wholesale.
    EXPECT_LT(message.size(), 256u) << c.name;
  }
}

TEST(IoTest, CrlfTextStillParsesCleanInput) {
  Result<SpatialInstance> instance = ParseInstanceText(
      "# comment\r\nA: (0 0, 4 0, 4 4)\r\n\r\nB: (8 8, 9 8, 9 9)\r\n");
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  EXPECT_EQ(instance->size(), 2u);
}

TEST(IoTest, CoordinateLiteralAtTheLimitStillParses) {
  // 4096 chars is the documented bound; exactly at it must succeed.
  std::string big(4096, '0');
  big[0] = '1';  // 1 followed by 4095 zeros: a huge but valid integer.
  const std::string text =
      "A: (0 0, " + big + " 0, " + big + " " + big + ", 0 " + big + ")\n";
  EXPECT_TRUE(ParseInstanceText(text).ok());
}

TEST(IoTest, CanonicalFormExceedingTheLimitIsRejected) {
  // A 4096-char decimal literal is within the literal cap, but its
  // lowest-terms fraction ("1/10^4095") is nearly twice as long. The
  // parser must reject it up front — accepting it would make
  // WriteInstanceText emit a literal ParseInstanceText itself refuses,
  // breaking the round trip.
  std::string tiny = "." + std::string(4094, '0') + "1";  // 4096 chars.
  ASSERT_EQ(tiny.size(), 4096u);
  const std::string text =
      "A: (0 0, 1 0, 1 " + tiny + ", 0 " + tiny + ")\n";
  const Result<SpatialInstance> instance = ParseInstanceText(text);
  ASSERT_FALSE(instance.ok());
  EXPECT_EQ(instance.status().code(), StatusCode::kParseError);
  EXPECT_NE(instance.status().message().find("canonical form"),
            std::string::npos)
      << instance.status().ToString();
}

// Deterministic fuzz: random instances mixing integer, decimal, and
// fraction literals (redundant forms included — "2/4", trailing zeros)
// and names that stress the writer's formatting. The first Write output
// must re-parse, and a second Write must reproduce it byte for byte.
TEST(IoTest, RandomizedWriteParseRoundTripIsByteStable) {
  uint64_t rng_state = 0x5eed5eed5eedull;
  auto next = [&rng_state]() {
    // SplitMix64: deterministic across platforms, no <random> variance.
    uint64_t z = (rng_state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  // Awkward but valid names: spaces, parens, commas, internal '#',
  // slashes, dots, dashes. (Colons, control chars, leading '#', and
  // leading/trailing blanks are rejected by ValidateRegionName.)
  const std::vector<std::string> kNames = {
      "plain", "two words", "r(1)", "x,y", "w#2", "a/b", "dot.ted",
      "-dash", "()", "q__",
  };
  // A literal for a value in [base, base + 1), in a random surface form.
  auto literal = [&](int64_t base) -> std::string {
    switch (next() % 4) {
      case 0:  // Bare integer, sometimes with an explicit '+'.
        return (base >= 0 && next() % 2 ? "+" : "") + std::to_string(base);
      case 1: {  // Decimal with 1..6 digits, trailing zeros allowed.
        const size_t digits = 1 + next() % 6;
        std::string frac;
        for (size_t i = 0; i < digits; ++i) {
          frac.push_back(static_cast<char>('0' + next() % 10));
        }
        if (base < 0) {
          // "-2.5" means -(2.5): emit the magnitude after the sign.
          return "-" + std::to_string(-base - 1) + "." + frac;
        }
        return std::to_string(base) + "." + frac;
      }
      default: {  // Fraction (base*q + p)/q, not necessarily lowest terms.
        const int64_t q = 2 + static_cast<int64_t>(next() % 98);
        const int64_t p = static_cast<int64_t>(next() % q);
        const int64_t scale = next() % 2 ? 1 : 2 + (next() % 9);
        return std::to_string((base * q + p) * scale) + "/" +
               std::to_string(q * scale);
      }
    }
  };
  for (int round = 0; round < 50; ++round) {
    const size_t num_regions = 1 + next() % 4;
    std::string text = "# fuzz round " + std::to_string(round) + "\n";
    for (size_t r = 0; r < num_regions; ++r) {
      // Disjoint axis-aligned rectangles with x0 < x1, y0 < y1 by
      // construction; an offset keeps some coordinates negative.
      const int64_t bx = 3 * static_cast<int64_t>(r) - 4;
      const std::string x0 = literal(bx), x1 = literal(bx + 1);
      const std::string y0 = literal(-2), y1 = literal(0);
      text += kNames[(round + r) % kNames.size()] + ": (" + x0 + " " + y0 +
              ", " + x1 + " " + y0 + ", " + x1 + " " + y1 + ", " + x0 +
              " " + y1 + ")\n";
    }
    const Result<SpatialInstance> first = ParseInstanceText(text);
    ASSERT_TRUE(first.ok()) << "round " << round << ": "
                            << first.status().ToString() << "\n" << text;
    const std::string written = WriteInstanceText(*first);
    const Result<SpatialInstance> second = ParseInstanceText(written);
    ASSERT_TRUE(second.ok()) << "round " << round << ": "
                             << second.status().ToString() << "\n" << written;
    EXPECT_EQ(second->size(), first->size()) << "round " << round;
    EXPECT_EQ(WriteInstanceText(*second), written)
        << "round " << round << " is not byte-stable";
  }
}

TEST(IoTest, EmptyTextIsEmptyInstance) {
  Result<SpatialInstance> instance = ParseInstanceText("# nothing here\n");
  ASSERT_TRUE(instance.ok());
  EXPECT_TRUE(instance->empty());
  EXPECT_EQ(WriteInstanceText(*instance), "");
}

}  // namespace
}  // namespace topodb
