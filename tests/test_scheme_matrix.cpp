// The scheme-conformance matrix (scheme_matrix_cells.h), epoch-family
// column: none, DEBRA and DEBRA+. HP and HE/IBR are instantiated in
// test_scheme_matrix_hp.cpp and test_scheme_matrix_era.cpp.
#include "scheme_matrix_cells.h"

namespace smr {
namespace {

using EpochSchemes =
    ::testing::Types<reclaim::reclaim_none, reclaim::reclaim_debra,
                     reclaim::reclaim_debra_plus>;
INSTANTIATE_TYPED_TEST_SUITE_P(Epoch, SchemeMatrix, EpochSchemes);

}  // namespace
}  // namespace smr
