"""Opening a digitized set: erosion then dilation, and what it leaves behind.

On a disc whose radius exceeds the structuring radius the opening returns
the set almost unchanged; the residue hugs the boundary circle.
"""

import math

import numpy as np

from eulergram import digitize, lattice_covering, make_shape, morph

h = 2e-3
disc = make_shape({"type": "disc", "center": [0, 0], "r": 0.5})
grid = digitize(disc, lattice_covering(disc.bounding_box, h, margin=105))
print("disc radius 0.5 at mesh %g: %d pixels set" % (h, int(grid.bits.sum())))

eroded = morph(grid, 0.2, "erode")
opened = morph(eroded, 0.2, "dilate")
print("after erosion by 0.2: %d pixels" % int(eroded.bits.sum()))
print("after re-dilation:    %d pixels" % int(opened.bits.sum()))

diff = grid.bits ^ opened.bits
njs, nis = np.nonzero(diff)
lat = grid.lattice
dist = np.hypot(lat.origin[0] + lat.epsilon * nis,
                lat.origin[1] + lat.epsilon * njs)
print("opening residue: %d pixels, all within %.4f of the circle (2 pixels = %.4f)"
      % (int(diff.sum()), float(np.abs(dist - 0.5).max()), 2 * h))
print("opening only removes pixels:", not bool((opened.bits & ~grid.bits).any()))

band = 2 * math.pi / h
print("a full two-pixel band around the circle holds about %.0f pixels;"
      " the residue uses %d" % (band, int(diff.sum())))

# a structuring radius larger than the disc wipes it out entirely
gone = morph(grid, 0.6, "erode")
print("erosion by 0.6 leaves %d pixels" % int(gone.bits.sum()))
