"""Reference data the benchmark checks every verdict against.

Transcribed from the test suite's reference module (tests/data.py) so that
the benchmark does not depend on the layout of the tests.  The surface
files under surfaces/ are copies of the bundled surfaces without their
`external:` lines; the benchmark adds those from the counts below.
"""

COUNTS = {
    "rank1-p5": [41, 751, 15626, 392251, 9759376, 244134376, 6103312501,
                 152589156251, 3814704296876, 95367474609376],
    "rank1-p3": [19, 127, 676, 6751, 58564, 532414, 4791232, 43038703,
                 387383311, 3486675052],
    "rank3-conics": [19, 115, 811, 6607, 59374, 534169, 4792933, 43027687,
                     387413929],
}

# the factor R of P = (t - q)^k R, descending coefficients
R_FACTOR = {
    "rank1-p5": [1, -5, -25, 250, -250, -1875, 12500, -31250, -156250,
                 390625, 5859375, 9765625, -97656250, -488281250,
                 4882812500, -18310546875, -61035156250, 1525878906250,
                 -3814697265625, -19073486328125, 95367431640625],
    "rank1-p3": [1, -3, -9, 72, -81, -324, 1458, -2916, 4374, 26244, -137781,
                 236196, 354294, -2125764, 9565938, -19131876, -43046721,
                 344373768, -387420489, -1162261467, 3486784401],
    "rank3-conics": [1, 3, 6, 18, 108, 405, 972, 2187, 13122, 52488, 118098,
                     177147, 708588, 2657205, 6377292, 9565938, 28697814,
                     129140163, 387420489],
}

# (prime, known q-eigenvalue multiplicity k, expected verdict)
SURFACES = {
    "rank1-p3": (3, 2, "rank = 1 proved"),
    "rank3-conics": (3, 4, "rank = 3 proved"),
    "rank1-p5": (5, 2, "rank = 1 proved"),
}

# sha256 of the screen workload's sextic verdicts at DEFAULT_SEED with the
# full sextic count; recorded once from the seed commit
DEFAULT_SEED = 1
SCREEN_VERDICT_DIGEST = "90004705da05380f0e656b3d166ff200df73dd62b2a6cfbff3a4c7d758002e59"
