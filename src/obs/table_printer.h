#ifndef SISG_OBS_TABLE_PRINTER_H_
#define SISG_OBS_TABLE_PRINTER_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace sisg {

/// Fixed-width ASCII table used by the experiment harnesses to print
/// paper-style tables (Table II, Table III, ...) and by the metrics
/// exporter for the end-of-run summary. Lives in obs/ so both eval and the
/// observability layer can use it without a dependency cycle.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  /// Renders with column widths fit to content.
  void Print(std::ostream& os) const;

  /// Convenience formatters.
  static std::string Fixed(double v, int precision);
  static std::string Percent(double fraction, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sisg

#endif  // SISG_OBS_TABLE_PRINTER_H_
