#include "common/time.h"

#include <cmath>

#include "common/check.h"

namespace tprm {

bool unitsFitTicks(double units) {
  return std::isfinite(units) &&
         std::abs(units * static_cast<double>(kTicksPerUnit)) <
             static_cast<double>(kTimeInfinity);
}

Time ticksFromUnits(double units) {
  TPRM_CHECK(std::isfinite(units), "time must be finite");
  TPRM_CHECK(unitsFitTicks(units), "time overflows tick range");
  return static_cast<Time>(
      std::llround(units * static_cast<double>(kTicksPerUnit)));
}

double unitsFromTicks(Time ticks) {
  return static_cast<double>(ticks) / static_cast<double>(kTicksPerUnit);
}

std::string formatTime(Time ticks) {
  const bool negative = ticks < 0;
  const Time abs = negative ? -ticks : ticks;
  const Time whole = abs / kTicksPerUnit;
  Time frac = abs % kTicksPerUnit;
  std::string out = negative ? "-" : "";
  out += std::to_string(whole);
  if (frac != 0) {
    // Emit exactly the significant fractional digits (base-10, 6 places).
    std::string digits(6, '0');
    Time scale = kTicksPerUnit / 10;
    for (int i = 0; i < 6; ++i) {
      digits[static_cast<std::size_t>(i)] =
          static_cast<char>('0' + (frac / scale));
      frac %= scale;
      scale /= 10;
    }
    while (!digits.empty() && digits.back() == '0') digits.pop_back();
    out += '.';
    out += digits;
  }
  return out;
}

}  // namespace tprm
