#
# Render the midpoint subgradient flow around a planted vector, plus the
# certifier-agreement grid behind it, for the 2-d instances used in the
# writeup. Both come from the command line front end (`flow` and
# `landscape`), so the CSV has the landscape columns, x varying fastest.
# Outputs land in scripts/out/.
#

import os

from l1landscape.cli import main

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT_DIR, exist_ok=True)

instances = {"symmetric": "1,1", "lopsided": "2,0.5"}
grid = ["--xmin", "-2.5", "--xmax", "2.5", "--ymin", "-2.5", "--ymax", "2.5",
        "--nx", "31", "--ny", "31"]

# The arrows are unit negative midpoint subgradients; stationary points show
# up as dots where the field vanishes. Both certifiers should agree on every
# grid point; `landscape` exits 2 and says how many points disagree otherwise.
for name, ustar in instances.items():
    for command, path in (("flow", f"flow_{name}.svg"),
                          ("landscape", f"landscape_{name}.csv")):
        path = os.path.join(OUT_DIR, path)
        code = main([command, "-g", ustar, *grid, "-o", path])
        print(f"wrote {path} (exit {code})")
