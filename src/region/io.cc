#include "src/region/io.h"

#include <sstream>
#include <vector>

namespace topodb {

std::string WriteInstanceText(const SpatialInstance& instance) {
  std::ostringstream os;
  for (const auto& [name, region] : instance.regions()) {
    os << name << ": (";
    const Polygon& poly = region.boundary();
    for (size_t i = 0; i < poly.size(); ++i) {
      if (i) os << ", ";
      os << poly.vertex(i).x.ToString() << " " << poly.vertex(i).y.ToString();
    }
    os << ")\n";
  }
  return os.str();
}

namespace {

Status LineError(size_t line, const std::string& message) {
  return Status::ParseError("line " + std::to_string(line + 1) + ": " +
                            message);
}

std::string Strip(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

// Bounded excerpt of attacker-controlled input for error messages: a
// malformed 10 MB token must not be echoed back verbatim.
constexpr size_t kMaxSnippetChars = 48;
std::string Snippet(const std::string& s) {
  if (s.size() <= kMaxSnippetChars) return s;
  return s.substr(0, kMaxSnippetChars) + "...[" + std::to_string(s.size()) +
         " chars]";
}

// Coordinate literals parse into BigInt-backed rationals, whose cost grows
// with the digit count; cap the literal length so a pathological input
// fails fast instead of grinding through arbitrary-precision arithmetic.
constexpr size_t kMaxCoordinateChars = 4096;

// Splits text into lines at "\n", "\r\n", or bare "\r" (classic-Mac),
// each terminator counting as exactly one line break — so the line
// numbers in ParseError are accurate for every line-ending convention.
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find_first_of("\r\n", pos);
    if (eol == std::string::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
    if (text[eol] == '\r' && pos < text.size() && text[pos] == '\n') ++pos;
  }
  return lines;
}

}  // namespace

Result<SpatialInstance> ParseInstanceText(const std::string& text) {
  SpatialInstance instance;
  const std::vector<std::string> raw_lines = SplitLines(text);
  for (size_t line_no = 0; line_no < raw_lines.size(); ++line_no) {
    const std::string line = Strip(raw_lines[line_no]);
    if (line.empty() || line[0] == '#') continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return LineError(line_no, "expected 'name: (x y, ...)'");
    }
    const std::string name = Strip(line.substr(0, colon));
    if (name.empty()) return LineError(line_no, "empty region name");
    Status name_ok = ValidateRegionName(name);
    if (!name_ok.ok()) {
      return LineError(line_no, "invalid region name: " + name_ok.message());
    }
    // AddRegion would also reject duplicates, but checking here pins the
    // error to the offending line.
    if (instance.HasRegion(name)) {
      return LineError(line_no,
                       "duplicate region name '" + Snippet(name) + "'");
    }
    std::string rest = Strip(line.substr(colon + 1));
    if (rest.size() < 2 || rest.front() != '(' || rest.back() != ')') {
      return LineError(line_no, "expected parenthesized vertex list");
    }
    rest = rest.substr(1, rest.size() - 2);
    std::vector<Point> vertices;
    std::istringstream vs(rest);
    std::string pair;
    while (std::getline(vs, pair, ',')) {
      std::istringstream ps(pair);
      std::string xs, ys, extra;
      if (!(ps >> xs >> ys) || (ps >> extra)) {
        return LineError(line_no,
                         "expected 'x y' vertex: '" + Snippet(pair) + "'");
      }
      if (xs.size() > kMaxCoordinateChars || ys.size() > kMaxCoordinateChars) {
        return LineError(
            line_no, "coordinate literal exceeds " +
                         std::to_string(kMaxCoordinateChars) + " chars: '" +
                         Snippet(xs.size() > kMaxCoordinateChars ? xs : ys) +
                         "'");
      }
      Rational x, y;
      if (!Rational::FromString(xs, &x) || !Rational::FromString(ys, &y)) {
        return LineError(line_no, "bad coordinate in '" + Snippet(pair) + "'");
      }
      // Also cap the canonical (lowest-terms) form: WriteInstanceText
      // emits it, and a long decimal literal can normalize to a fraction
      // with nearly twice the digits ("0.00...01" gains a power-of-ten
      // denominator). Without this check an accepted instance could
      // serialize to a literal this very parser rejects, breaking the
      // Write-then-Parse round trip.
      if (x.ToString().size() > kMaxCoordinateChars ||
          y.ToString().size() > kMaxCoordinateChars) {
        return LineError(line_no,
                         "coordinate value needs more than " +
                             std::to_string(kMaxCoordinateChars) +
                             " chars in canonical form: '" + Snippet(pair) +
                             "'");
      }
      vertices.push_back(Point(std::move(x), std::move(y)));
    }
    // Region::Make validates the polygon, a quadratic pass run only there.
    Polygon poly(std::move(vertices));
    const RegionClass cls = Region::Classify(poly);
    Result<Region> region = Region::Make(std::move(poly), cls);
    if (!region.ok()) {
      return LineError(line_no, name + ": " + region.status().message());
    }
    TOPODB_RETURN_NOT_OK(instance.AddRegion(name, *std::move(region)));
  }
  return instance;
}

}  // namespace topodb
