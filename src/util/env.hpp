#pragma once
/// \file env.hpp
/// \brief Process-wide threading defaults: kernels pick up the default set
/// by set_num_threads() when the caller passes threads <= 0.

namespace dmtk {

/// Number of hardware threads OpenMP will use at most (omp_get_max_threads).
int hardware_threads();

/// Set the library-wide default thread count (clamped to >= 1). Affects all
/// dmtk kernels called with threads <= 0.
void set_num_threads(int n);

/// Current library-wide default thread count.
int num_threads();

/// Resolve a user-supplied thread-count argument: values <= 0 mean "use the
/// library default".
int resolve_threads(int requested);

}  // namespace dmtk
