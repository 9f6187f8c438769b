"""A `bounds` config whose test boxes reach the labelling, and its table.

Shared by the CLI tests and the scipy-load test, which both run it.
"""

# a disc inside a thin ring, the gap between them 6.4 truth cells wide, and a
# window cutting both: the coarse meshes miss the ring and the gap, so pairs
# are detected on the set and on its complement
THIN_BOUNDS_CFG = {
    "truth": {"type": "union", "members": [
        {"type": "disc", "center": [0, 0], "r": 0.3},
        {"type": "annulus", "center": [0, 0], "r_in": 0.4, "r_out": 0.45}]},
    "h": 0.015625, "epsilons": [0.0625, 0.125, 0.25],
    "window": {"rects": [[-0.6, 0.2, -0.6, 0.6]]},
}
THIN_BOUNDS_CSV = """\
epsilon,n_interior,n_boundary,corners,components_digitized,components_truth,bound_rhs,holds,chi_abs,chi_bound_rhs,chi_holds
0.0625,7,1,4,4,2,26,True,10,30,True
0.125,9,0,4,1,2,28,True,4,32,True
0.25,6,0,4,1,2,22,True,1,26,True
"""
