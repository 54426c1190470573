"""Write reference/<workload>.json: the suite values of the current sources.

    python3 perfbench/capture_reference.py

run.py counts the values of each suite run that differ from these (floats
beyond 1e-12 relative, anything else at all) and prints the count as a
diagnostic. Re-capture only in a change that means to alter the results.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402


def main():
    (HERE / "reference").mkdir(exist_ok=True)
    for workload in worker.SUITES:
        tmp = worker.WORK / f"reference-{workload}.json"
        tmp.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                        "--seed", "0", "--result", str(tmp)], stdout=sys.stderr, check=True)
        values = json.loads(tmp.read_text())["values"]
        (HERE / "reference" / f"{workload}.json").write_text(
            json.dumps(values, indent=0, sort_keys=True) + "\n")
        tmp.unlink()
        print(f"{workload}: {len(values)} values")


if __name__ == "__main__":
    main()
