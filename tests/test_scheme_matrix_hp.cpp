// The scheme-conformance matrix (scheme_matrix_cells.h), hazard-pointer
// column.
#include "scheme_matrix_cells.h"

namespace smr {
namespace {

using HazardSchemes = ::testing::Types<reclaim::reclaim_hp>;
INSTANTIATE_TYPED_TEST_SUITE_P(Hazard, SchemeMatrix, HazardSchemes);

}  // namespace
}  // namespace smr
