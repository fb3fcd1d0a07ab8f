// The scheme-conformance matrix (scheme_matrix_cells.h), era-family
// column: Hazard Eras and 2GE-IBR.
#include "scheme_matrix_cells.h"

namespace smr {
namespace {

using EraSchemes = ::testing::Types<reclaim::reclaim_he, reclaim::reclaim_ibr>;
INSTANTIATE_TYPED_TEST_SUITE_P(Era, SchemeMatrix, EraSchemes);

}  // namespace
}  // namespace smr
