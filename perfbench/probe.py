"""One set-up as every augridge CLI invocation pays it, in a fresh
interpreter: the numpy/scipy/augridge imports, the config parse and
validation, and building the scheme, feature map and data law. Prints
time.monotonic() when done; run.py subtracts the time it started this
process, so interpreter start counts too.

    python3 perfbench/probe.py <config.json>
"""

import sys
import time

from augridge.harness import ExperimentConfig


def main(config_path):
    config = ExperimentConfig.from_json(config_path)
    config.build_scheme()
    config.build_feature_map()
    if config.data["kind"] == "synthetic":
        config.build_synthetic_spec()
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1])
