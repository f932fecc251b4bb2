#!/usr/bin/env python3
"""Merge sharded fault-campaign JSON artifacts back into one.

ext_fault_campaign --shard K/N runs the global injection indices congruent
to K mod N; every shard emits the same campaign list with shard-local
injection/outcome counts. Because the per-injection seed is derived from
the GLOBAL index, summing the shards reproduces the unsharded campaign
exactly — this script verifies that all per-campaign metadata agrees,
sums the counts, recomputes coverage, and emits a file byte-identical to
an unsharded run with the same seed and total injections.

Usage: merge_campaign.py SHARD.json [SHARD.json ...] -o MERGED.json
"""

import argparse
import sys

import jsonfile

# Keys that must be identical across shards for a campaign to be mergeable.
META_KEYS = (
    "workload",
    "policy",
    "arch",
    "ecc",
    "protection",
    "checkpoint",
    "burst_len",
    "reg_burst",
    "seed",
    "clean_cycles",
    "energy_per_op",
    "cores",
)

# Per-shard totals that sum across shards (adaptive-campaign artifacts).
SUM_KEYS = ("strikes", "checkpoints", "reexec_cycles", "interval_updates")

# Mirrors power::cal — overhead_energy is recomputed from the merged
# integer totals with the bench's own constants and expression, which is
# what keeps the merged artifact byte-identical to an unsharded run.
CHECKPOINT_WORDS_PER_CORE = 18.0
CHECKPOINT_WORD_ENERGY = 32.0e-12
CORE_ENERGY_PER_OP = 22.5e-12


def load(path):
    # parse_float=str keeps energy_per_op exactly as the C++ bench printed
    # it, so the merged file reproduces those bytes verbatim.
    return jsonfile.load(path, parse_float=str)


def fmt_number(v):
    # Recomputed floats are rendered like C++'s default ostream (6
    # significant digits, %g): that is what makes the merged artifact
    # byte-identical to an unsharded run.
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%g" % v
    return str(v)


def merge(shards):
    campaigns = None
    for path, doc in shards:
        if not isinstance(doc, dict) or not isinstance(doc.get("campaigns"), list):
            sys.exit(f"{path}: not a campaign artifact (no 'campaigns' list)")
        for i, c in enumerate(doc["campaigns"]):
            if (
                not isinstance(c, dict)
                or not isinstance(c.get("outcomes"), dict)
                or not isinstance(c.get("injections"), int)
            ):
                sys.exit(f"{path}: campaign #{i} lacks 'outcomes'/'injections'")
        if campaigns is None:
            campaigns = [dict(c) for c in doc["campaigns"]]
            continue
        if len(doc["campaigns"]) != len(campaigns):
            sys.exit(f"{path}: campaign count differs from first shard")
        for merged, c in zip(campaigns, doc["campaigns"]):
            for k in META_KEYS:
                if merged.get(k) != c.get(k):
                    sys.exit(
                        f"{path}: campaign metadata mismatch on '{k}' "
                        f"({merged.get(k)!r} vs {c.get(k)!r})"
                    )
            merged["injections"] += c["injections"]
            for k in SUM_KEYS:
                if k in merged:
                    merged[k] += c[k]
            for name, n in c["outcomes"].items():
                merged["outcomes"][name] += n
    for c in campaigns:
        if sum(c["outcomes"].values()) != c["injections"]:
            sys.exit("outcome counts do not sum to injections after merge")
        sdc = c["outcomes"].get("SDC", 0)
        c["coverage"] = (
            1.0 if c["injections"] == 0 else 1.0 - sdc / c["injections"]
        )
        if "overhead_energy" in c:
            cores = float(c["cores"])
            save = cores * CHECKPOINT_WORDS_PER_CORE * CHECKPOINT_WORD_ENERGY
            cycle = cores * CORE_ENERGY_PER_OP
            c["overhead_energy"] = (
                float(c["checkpoints"]) * save + float(c["reexec_cycles"]) * cycle
            )
    return campaigns


def render(campaigns):
    # Mirrors ext_fault_campaign's / ext_fault_adaptive's write_json (no
    # shard key) byte for byte.
    out = ["{", '  "campaigns": [']
    for i, c in enumerate(campaigns):
        outcomes = ", ".join(
            f'"{name}": {n}' for name, n in c["outcomes"].items()
        )
        policy = f'"policy": "{c["policy"]}", ' if "policy" in c else ""
        extra = ""
        if "overhead_energy" in c:
            extra = (
                f'\n     "cores": {c["cores"]}, "strikes": {c["strikes"]}, '
                f'"checkpoints": {c["checkpoints"]}, '
                f'"reexec_cycles": {c["reexec_cycles"]}, '
                f'"interval_updates": {c["interval_updates"]}, '
                f'"overhead_energy": {fmt_number(c["overhead_energy"])},'
            )
        line = (
            f'    {{"workload": "{c["workload"]}", {policy}"arch": "{c["arch"]}", '
            f'"ecc": {fmt_number(c["ecc"])}, '
            f'"protection": "{c["protection"]}", '
            f'"checkpoint": {fmt_number(c["checkpoint"])}, '
            f'"burst_len": {c["burst_len"]}, "reg_burst": {c["reg_burst"]}, '
            f'"seed": {c["seed"]}, "injections": {c["injections"]}, '
            f'"clean_cycles": {c["clean_cycles"]}, '
            f'"energy_per_op": {fmt_number(c["energy_per_op"])},{extra}\n'
            f'     "outcomes": {{{outcomes}}}, '
            f'"coverage": {fmt_number(c["coverage"])}}}'
            + ("," if i + 1 < len(campaigns) else "")
        )
        out.append(line)
    out.append("  ]")
    out.append("}")
    return "\n".join(out) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("shards", nargs="+", help="per-shard JSON artifacts")
    ap.add_argument("-o", "--output", required=True, help="merged JSON path")
    args = ap.parse_args()

    docs = [(p, load(p)) for p in args.shards]
    seen = set()
    for path, doc in docs:
        shard = doc.get("shard")
        if len(docs) > 1 and shard is None:
            sys.exit(f"{path}: missing 'shard' key in a multi-shard merge")
        if shard in seen:
            sys.exit(f"{path}: duplicate shard {shard}")
        seen.add(shard)

    campaigns = merge(docs)
    with open(args.output, "w") as f:
        f.write(render(campaigns))
    print(f"merged {len(docs)} shard(s), {len(campaigns)} campaigns -> {args.output}")


if __name__ == "__main__":
    main()
