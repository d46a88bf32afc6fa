"""Write ``nf_pinned.json``: the normal forms of the ``nf_queries`` workload's
pinned elements, computed by the chowforge in this checkout's ``src/``.

    python3 perfbench/pin_nf.py

Run it only to re-pin on purpose, for example after the presentations'
generators change.  The benchmark checks every later commit against the file.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import NF_PINNED, NfQueries, element_to_json  # noqa: E402

if __name__ == "__main__":
    w = NfQueries(seed=0)
    w.setup()
    stored = {
        key: [element_to_json(pres.normal_form(e)) for e in w.pinned_elements(key, pres)]
        for key, pres in w.presentations
    }
    lines = ",\n".join(
        f"{json.dumps(key)}: [\n" + ",\n".join(json.dumps(e) for e in forms) + "\n]"
        for key, forms in stored.items()
    )
    NF_PINNED.write_text("{\n" + lines + "\n}\n")
    print(f"wrote {sum(map(len, stored.values()))} normal forms to {NF_PINNED.name}")
