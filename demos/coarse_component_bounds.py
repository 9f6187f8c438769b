"""Counting components of a coarse digitization against its guaranteed bounds.

A fine grid stands in for the continuum truth. Resampling it on a coarser
mesh can only create so many components: the excess is controlled by the
number of close-approach pairs the truth exhibits at that scale.
"""

import numpy as np
from scipy import ndimage

from eulergram import BitGrid, Lattice, PolyRectangle, verify_bounds

rng = np.random.default_rng(3)
noise = ndimage.gaussian_filter(rng.standard_normal((160, 160)), 6.0)
bits = noise > np.quantile(noise, 0.65)
bits[:24, :] = bits[-24:, :] = bits[:, :24] = bits[:, -24:] = False

truth = BitGrid(lattice=Lattice(epsilon=1.0, origin=(0.0, 0.0), nx=160, ny=160),
                bits=bits)

# one call checks every mesh, sharing the work that does not depend on it
meshes = (4.0, 8.0, 16.0)
for eps, rep in zip(meshes, verify_bounds(truth, meshes)):
    print("mesh %4.0f: digitized components %d <= %d"
          " (2 x %d interior pairs + %d truth components), holds %s"
          % (eps, rep.num_components_digitized, rep.bound_rhs,
             rep.n_interior, rep.num_components_truth, rep.holds))
    print("          |chi| %d <= %d, holds %s"
          % (rep.chi_abs, rep.chi_bound_rhs, rep.chi_holds))

# restricting to a window brings boundary pairs and window corners into play
window = PolyRectangle(rects=((40.0, 120.0, 40.0, 120.0),))
rep, = verify_bounds(truth, [8.0], window)
print("windowed, mesh 8: %d <= %d with %d boundary pairs and %d corners, holds %s"
      % (rep.num_components_digitized, rep.bound_rhs, rep.n_boundary,
         rep.corners, rep.holds))
