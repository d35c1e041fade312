#pragma once
// The DMM views a memory of M words on w modules as a w x ceil(M/w) matrix:
// row = memory module (bank), columns = consecutive "stripes" of the address
// space, contiguous addresses laid out in column-major order (paper, Sec.
// II-B).  These helpers convert between addresses and (bank, column) pairs
// and render such matrices for the Figure-1/Figure-3 style depictions.

#include <cstddef>
#include <functional>
#include <string>

#include "util/check.hpp"

namespace wcm::dmm {

/// Bank (memory module) holding address `addr` on a machine with `w` banks.
[[nodiscard]] inline std::size_t bank_of(std::size_t addr, std::size_t w) {
  WCM_EXPECTS(w > 0, "bank count must be positive");
  return addr % w;
}

/// Column of the bank matrix holding address `addr`.
[[nodiscard]] std::size_t column_of(std::size_t addr, std::size_t w);

/// Address stored at (bank, column).
[[nodiscard]] std::size_t addr_of(std::size_t bank, std::size_t column,
                                  std::size_t w);

/// Render the bank matrix of an address range [0, size) as aligned text.
/// `cell(addr)` supplies the label for each address (e.g. the id of the
/// thread that reads it); empty labels render as '.'.
[[nodiscard]] std::string render_bank_matrix(
    std::size_t size, std::size_t w,
    const std::function<std::string(std::size_t)>& cell);

}  // namespace wcm::dmm
