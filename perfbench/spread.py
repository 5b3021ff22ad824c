"""Runs the benchmark over many seeds and checks its figures against the
bounds in BENCHMARK.json. Run from the repository root.

  python3 perfbench/spread.py --workloads ingest,report --seeds 1-10 --out perfbench/results/a.jsonl
  python3 perfbench/spread.py --summary perfbench/results/a.jsonl [perfbench/results/b.jsonl]

The first form runs the untraced benchmark once per workload and seed and
appends one JSON line per run to --out. The second prints, per workload and
end-to-end metric, the median and the spread (distance between the first and
third quartile over the median) of each file, and with two files how far the
second median moved in the metric's worse direction. A spread above its
bound (setup_s excepted) or a move above it is marked OVER.
"""
import argparse
import json
import statistics
import subprocess
import time


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record(bench, workloads, seed_spec, out):
    with open(out, "a") as f:
        for wl in workloads:
            for seed in seeds(seed_spec):
                args = ["--workload", wl, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                start = time.time()
                p = subprocess.run(bench["command"] + args, capture_output=True, text=True)
                lines = p.stdout.strip().splitlines()
                stamp = next((l for l in lines if l.startswith("# stamp ")), "")
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    result = None
                row = {"workload": wl, "seed": seed, "exit": p.returncode, "wall_s": round(time.time() - start, 1),
                       "stamp": stamp[len("# stamp "):], "result": result}
                f.write(json.dumps(row) + "\n")
                f.flush()
                print(f"{wl} seed {seed}: exit {p.returncode}, {row['wall_s']} s", flush=True)


def medians_and_spreads(path):
    vals = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            r = row["result"]
            if row["exit"] != 0 or not r or not r["correct"]:
                print(f"{path}: {row['workload']} seed {row['seed']} failed (exit {row['exit']})")
                continue
            for name, m in r["metrics"].items():
                vals.setdefault((row["workload"], name), []).append(m["value"])
    out = {}
    for key, v in vals.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        out[key] = (med, (q[2] - q[0]) / med, len(v))
    return out


def summary(bench, paths):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sets = [medians_and_spreads(p) for p in paths]
    for key in sorted(sets[0]):
        wl, name = key
        m = bounds[name]
        cols = []
        for s in sets:
            if key not in s:
                cols.append("missing")
                continue
            med, spread, n = s[key]
            flag = "" if name == "setup_s" or spread <= m["bound"] else " OVER"
            cols.append(f"median={med:12.4f} spread={spread:6.3f}{flag} n={n}")
        if len(sets) == 2 and key in sets[1]:
            a, b = sets[0][key][0], sets[1][key][0]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            cols.append(f"worse_by={worse:+.3f}" + (" OVER" if worse > m["bound"] else ""))
        print(f"{wl:8s} {name:18s} bound={m['bound']:<5} " + "  ".join(cols))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    ap.add_argument("--summary", nargs="+")
    a = ap.parse_args()
    bench = load_bench()
    if a.summary:
        summary(bench, a.summary)
    elif a.workloads and a.out:
        record(bench, a.workloads.split(","), a.seeds, a.out)
    else:
        ap.error("give --workloads and --out, or --summary")


if __name__ == "__main__":
    main()
