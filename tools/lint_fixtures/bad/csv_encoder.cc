// Fixture: per-cell allocation inside the serving CSV encoder's bodies.
#include <sstream>
#include <string>
#include <vector>

namespace text {
std::string format_double(double v, int precision);
}

struct Table {
    void append_csv(std::string& out, bool include_header) const;
    std::vector<double> cells;
    std::vector<std::string> labels;
};

void Table::append_csv(std::string& out, bool include_header) const {
    if (include_header) {
        out += "a,b\n";  // appending to the caller's buffer is the point
    }
    for (const double v : cells) {
        std::ostringstream os;                 // LINT-EXPECT: hot-path-alloc
        os << v;
        out += text::format_double(v, 6);      // LINT-EXPECT: hot-path-alloc
        out += std::to_string(v);              // LINT-EXPECT: hot-path-alloc
        const std::string cell = labels[0];    // LINT-EXPECT: hot-path-alloc
        out += labels[0].substr(1);            // LINT-EXPECT: hot-path-alloc
        out.push_back(',');
        out += cell;
    }
}

void append_fixed(std::string& out, double v, int precision) {
    out += std::string(8, ' ');  // LINT-EXPECT: hot-path-alloc
    (void)v;
    (void)precision;
}

// The same tokens outside the encoder are fine.
std::string describe(double v) {
    std::ostringstream os;
    os << v;
    return os.str() + std::to_string(v);
}
