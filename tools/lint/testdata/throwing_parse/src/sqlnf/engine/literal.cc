// Violation fixture: parsing wire text with the throwing std::sto*
// family. Lines 8 and 9 must fire; the comment, the from_chars call
// and the member calls below must not (std::stoll in a comment is
// fine).
#include <charconv>
#include <string>

long long Bad(const std::string& s) { return std::stoll(s); }
double AlsoBad(const std::string& s) { return std::stod(s); }

bool Good(const std::string& s, long long* v) {
  return std::from_chars(s.data(), s.data() + s.size(), *v).ec ==
         std::errc();
}

int Member(Parser* p, Parser& q) { return p->stoi(1) + q.stol(2); }
