// Solver factory: name-based construction, mirroring the paper's ability
// to "run multiple optimization algorithms without changes to other
// elements of the system".
#pragma once

#include <memory>
#include <string>

#include "color/mixing.hpp"
#include "solver/solver.hpp"

namespace sdl::solver {

struct SolverOptions {
    std::size_t dims = 4;
    std::uint64_t seed = 1;
    /// Needed only by the oracle baseline.
    const color::BeerLambertMixer* mixer = nullptr;
    color::Rgb8 target{120, 120, 120};
    /// Unread; exists only until the campaign benchmark drops its references.
    std::string linalg_backend = "strict";
};

/// Known names: "genetic", "bayesian", "anneal", "pattern", "random",
/// "grid", "oracle".
/// Throws ConfigError for unknown names or missing oracle prerequisites.
[[nodiscard]] std::unique_ptr<Solver> make_solver(const std::string& name,
                                                  const SolverOptions& options);

/// All registered solver names (for CLIs and benches).
[[nodiscard]] std::vector<std::string> solver_names();

}  // namespace sdl::solver
