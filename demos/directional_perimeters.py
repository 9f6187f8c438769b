"""Directional and variational perimeters from small-shift covariograms."""

import math

import numpy as np

from eulergram import estimate_perimeter, make_shape, perimeter_axis_sum, perimeter_variational

square = make_shape({"type": "implicit",
                     "g": lambda x, y: np.maximum(np.abs(x - 0.5),
                                                  np.abs(y - 0.5)) - 0.5,
                     "bounding_box": (-0.2, 1.2, -0.2, 1.2)})
disc = make_shape({"type": "disc", "center": [0, 0], "r": 0.5})

eps = (0.08, 0.04, 0.02)
mesh = 1e-3

# one direction at a time: the covariogram slope along u gives Per^u
est = estimate_perimeter(disc, (1.0, 0.0), eps, mesh)
print("disc, direction (1,0): slopes at shifts %s -> %s, extrapolated %.4f"
      % (list(est.epsilons), [round(v, 4) for v in est.values], est.extrapolated))

for name, shape, per_true in (("square", square, 4.0), ("disc", disc, math.pi)):
    per_inf = perimeter_axis_sum(shape, eps, mesh)
    print("%s: Per_inf = %.4f (axis directions only)" % (name, per_inf))
    for n_dir in (4, 16, 64):
        per = perimeter_variational(shape, eps, mesh, n_directions=n_dir)
        print("  %2d directions: Per = %.4f (true %.4f)" % (n_dir, per, per_true))

# the two functionals bracket each other: Per <= Per_inf <= sqrt(2) Per
per = perimeter_variational(disc, eps, mesh, n_directions=64)
per_inf = perimeter_axis_sum(disc, eps, mesh)
print("disc sandwich: %.4f <= %.4f <= %.4f"
      % (per, per_inf, math.sqrt(2.0) * per))
