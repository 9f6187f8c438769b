"""Level sets of a Poisson shot-noise field: exact geometry, closed forms, Monte Carlo."""

import math

from eulergram import (PolyRectangle, ShotNoiseModel, estimate_stationary_densities,
                       level_set_features_exact, mc_mean_chi, mean_chi_closed_form,
                       sample_realization, stationary_density_closed_form)

model = ShotNoiseModel.from_config({
    "intensity": 1.0,
    "grains": [{"rects": [[0.0, 1.0, 0.0, 1.0]], "p": 1.0}],
    "marks": [{"value": 1.0, "p": 1.0}],
    "lambda": 1.5,
})

window = PolyRectangle(rects=((0.0, 6.0, 0.0, 6.0),))
real = sample_realization(model, window.bounding_box, seed=1)
feats = level_set_features_exact(real, model.level, window)
print("one realization on [0,6]^2: %d germs (expected %.0f)"
      % (real.count, real.expected_count))
print("  chi %d, perimeters (%.2f, %.2f), area %.2f"
      % (feats["chi"], feats["per1"], feats["per2"], feats["vol"]))

closed = mean_chi_closed_form(model, window)
out = mc_mean_chi(model, window, replicates=300, seed=2)
print("mean chi over [0,6]^2: closed form %.4f, monte carlo %.4f +/- %.4f"
      % (closed, out["mean"], out["stderr"]))

# per unit area the field carries clean densities; with a unit square grain
# at level 1.5 they are elementary expressions in 1/e
dens = stationary_density_closed_form(model)
print("densities: chi %.6f (1/e = %.6f), volume fraction %.6f (1 - 2/e = %.6f)"
      % (dens["chi_bar"], math.exp(-1.0), dens["vol_bar"], 1 - 2 * math.exp(-1.0)))

est = estimate_stationary_densities(model, 0.02, (0.0, 6.0, 0.0, 6.0),
                                    replicates=60, seed=5)
print("estimated from 60 fields at mesh 0.02: chi %.4f +/- %.4f,"
      " volume %.4f +/- %.4f"
      % (est["chi_bar"], est["chi_stderr"], est["vol_bar"], est["vol_stderr"]))
