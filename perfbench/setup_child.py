"""One timed set-up in a fresh process: ``setup_child.py <workload>``.

Run by ``run.py`` with the pinned environment and an empty private
``SNOWFLAKE_CACHE_DIR``; prints ``{"seconds", "cc_count",
"source_bytes", "tune_winners"}`` as JSON.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import environment  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    w = workloads.WORKLOADS[sys.argv[1]]
    t0 = time.perf_counter()
    workloads.build(w)
    seconds = time.perf_counter() - t0
    cache = Path(os.environ["SNOWFLAKE_CACHE_DIR"])
    print(json.dumps({"seconds": seconds, **environment.cache_contents(cache)}))
