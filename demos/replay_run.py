"""Replay of the image-classification deployment, one corruption per run.

A MobileNetV2 student serves under drift while a ResNet50 teacher
relabels; menus come from the shipped compute/accuracy table, the
capacity law spans one student forward pass up to one teacher forward
pass per sample, and each run covers 100 slots of 1000 samples.
"""

import time

from orric import POLICIES, ReplaySpec, build_replay, generate_trace, offline_optimal, run_policy

for corruption in ("gaussian noise", "fog"):
    profiles, model, tspec = build_replay(ReplaySpec(corruption=corruption))
    trace = generate_trace(tspec, profiles)
    print(f"== {corruption} ==")
    print(
        f"  menus: {profiles.m} retraining x {profiles.n} inference entries, "
        f"accuracy ceiling {model.f_at_max}"
    )
    print(
        f"  trace: {trace.horizon} slots, {tspec.d_lo:.0f} samples/slot, "
        f"capacity uniform [{tspec.c_lo:.3g}, {tspec.c_hi:.3g}]"
    )
    totals = {}
    for policy in POLICIES:
        start = time.perf_counter()
        totals[policy] = run_policy(policy, trace, profiles, model).total
        elapsed = (time.perf_counter() - start) * 1000.0
        if policy == "orric":
            print(f"  orric run took {elapsed:.1f}ms for {trace.horizon} slots")
    start = time.perf_counter()
    oracle = offline_optimal(trace, profiles, model)
    elapsed = (time.perf_counter() - start) * 1000.0
    print(
        f"  exact offline optimum over {profiles.m}^{trace.horizon} retraining sequences: "
        f"{oracle.total:.2f} in {elapsed:.1f}ms (frontier peak {oracle.meta['frontier_peak']} states)"
    )
    for policy, total in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {policy:>22}: total {total:9.2f}  ({total / oracle.total:.6f} of optimum)")
    print()

print("capacity here usually covers top inference with budget to spare, so the")
print("policies that protect inference and retrain on the remainder (orric,")
print("inference-greedy) come within a hair of the offline optimum, while")
print("knowledge-distillation trails by paying for retraining with inference")
print("quality.")
