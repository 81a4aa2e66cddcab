/**
 * @file
 * The report model: each report declares its fields once (JSON key,
 * table column header, text format, accessor) and both renderings come
 * from that declaration. header()/row()/printTable() lay the fields out
 * as TablePrinter columns, fill() substitutes them into a sentence, and
 * writeMembers() writes them as JSON object members, so a table and its
 * --json twin carry the same facts by construction.
 */

#ifndef GNNMARK_CORE_REPORT_MODEL_HH
#define GNNMARK_CORE_REPORT_MODEL_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "base/logging.hh"
#include "base/table.hh"
#include "obs/json.hh"

namespace gnnmark {
namespace reports {

/** One field value as read from a record; it picks the JSON type. */
using Value = std::variant<double, int64_t, uint64_t, std::string, bool>;

/** How a field is written as text. */
struct Cell
{
    enum Kind : uint8_t {
        Plain,   ///< integers and text as they are
        Fixed,   ///< value * scale with `digits` decimals
        Percent, ///< percent(): value * 100, `digits` decimals, '%'
        General, ///< %g with `digits` significant digits
        Bytes,   ///< formatBytes(), e.g. "3.2 MiB"
        Hex,     ///< 16 hex digits; JSON as <key>_hi / <key>_lo halves
        Flag,    ///< `yes` or `no`
        Name,    ///< name(value) for an enum; JSON keeps the integer
    };
    Kind kind = Plain;
    int digits = 0;
    double scale = 1;
    const char *yes = "";
    const char *no = "";
    const char *(*name)(int64_t) = nullptr;
    /** Append to the previous column's cell after this separator. */
    const char *join = nullptr;
    /** Key of a flag field of the same record; "n/a" while it is false. */
    const char *gate = nullptr;
};

/**
 * One field of a report over records of type R. `get` may be a lambda
 * or a pointer to a data member or const member function of R.
 */
template <typename R>
struct Field
{
    std::string key;    ///< JSON member name; empty = text only
    std::string header; ///< table column header; empty = not a column
    Cell cell;
    std::function<Value(const R &)> get;
};

template <typename R>
using Fields = std::vector<Field<R>>;

/** `value` as text under `cell`. */
std::string formatCell(const Cell &cell, const Value &value);

/** Write `value` as the member `key` of the open JSON object. */
void writeValue(obs::JsonWriter &w, const std::string &key,
                const Cell &cell, const Value &value);

/** The field named `key`; panics when there is none. */
template <typename R>
const Field<R> &
fieldOf(const Fields<R> &fields, const std::string &key)
{
    for (const Field<R> &f : fields) {
        if (f.key == key)
            return f;
    }
    GNN_PANIC("report has no field '%s'", key.c_str());
}

/** The fields named by `keys`, in that order. */
template <typename R>
Fields<R>
pick(const Fields<R> &fields, const std::vector<std::string> &keys)
{
    Fields<R> out;
    for (const std::string &key : keys)
        out.push_back(fieldOf(fields, key));
    return out;
}

template <typename R>
Fields<R>
concat(Fields<R> a, const Fields<R> &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

/** Field `f` of `r` as text; its gate is looked up in `fields`. */
template <typename R>
std::string
cellOf(const Fields<R> &fields, const Field<R> &f, const R &r)
{
    if (f.cell.gate != nullptr &&
        !std::get<bool>(fieldOf(fields, f.cell.gate).get(r)))
        return "n/a";
    return formatCell(f.cell, f.get(r));
}

/** `lead` followed by the header of every column field. */
template <typename R>
std::vector<std::string>
header(const Fields<R> &fields, std::vector<std::string> lead = {})
{
    for (const Field<R> &f : fields) {
        if (!f.header.empty())
            lead.push_back(f.header);
    }
    return lead;
}

/** `lead` followed by the cell of every column field of `r`. */
template <typename R>
std::vector<std::string>
row(const Fields<R> &fields, const R &r, std::vector<std::string> lead = {})
{
    for (const Field<R> &f : fields) {
        if (f.cell.join != nullptr)
            lead.back() += f.cell.join + cellOf(fields, f, r);
        else if (!f.header.empty())
            lead.push_back(cellOf(fields, f, r));
    }
    return lead;
}

/** A table titled `title`: the column fields, one row per record. */
template <typename R>
void
printTable(std::ostream &os, std::string title, const Fields<R> &fields,
           std::type_identity_t<std::span<const R>> records)
{
    TablePrinter table(std::move(title));
    table.setHeader(header(fields));
    for (const R &r : records)
        table.addRow(row(fields, r));
    table.print(os);
}

/** `tmpl` with every "{key}" replaced by that field's text. */
template <typename R>
std::string
fill(const std::string &tmpl, const Fields<R> &fields, const R &r)
{
    std::string out;
    size_t pos = 0;
    for (size_t open; (open = tmpl.find('{', pos)) != std::string::npos;) {
        const size_t close = tmpl.find('}', open);
        const std::string key = tmpl.substr(open + 1, close - open - 1);
        out.append(tmpl, pos, open - pos);
        out += cellOf(fields, fieldOf(fields, key), r);
        pos = close + 1;
    }
    return out.append(tmpl, pos);
}

/** Every keyed field of `r` as a member of the open JSON object. */
template <typename R>
void
writeMembers(obs::JsonWriter &w, const Fields<R> &fields, const R &r)
{
    for (const Field<R> &f : fields) {
        if (!f.key.empty())
            writeValue(w, f.key, f.cell, f.get(r));
    }
}

} // namespace reports
} // namespace gnnmark

#endif // GNNMARK_CORE_REPORT_MODEL_HH
