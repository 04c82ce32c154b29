// Fixture: an encoder that only appends to the caller's reused buffer.
#include <charconv>
#include <string>
#include <string_view>
#include <vector>

void append_cell(std::string& out, std::string_view cell) {
    if (cell.find(',') == std::string_view::npos) {
        out += cell;
        return;
    }
    out.push_back('"');
    out += cell;
    out.push_back('"');
}

void append_fixed(std::string& out, double v, int precision) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, precision);
    out.append(buf, res.ptr);
}

struct Table {
    void append_csv(std::string& out, bool include_header) const;
    std::vector<double> cells;
    std::vector<std::string> labels;
};

void Table::append_csv(std::string& out, bool include_header) const {
    if (include_header) {
        append_cell(out, "value");
        out.push_back('\n');
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string& label = labels[i];
        append_cell(out, label);
        out.push_back(',');
        append_fixed(out, cells[i], 6);
        out.push_back('\n');
    }
}
