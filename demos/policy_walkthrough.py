"""Every policy on one small two-slot instance, step by step.

The instance: retraining menu {(0, 0), (gain 1, cost 10)}, inference
menu {(0.6, 2), (1.0, 5)}, one sample per slot, budgets (12, 5), and
accuracy f(x) = 0.5 + 0.3 x. Slot budgets afford retraining plus cheap
inference or top inference alone in slot 1, and only inference in slot 2.
"""

from orric import (
    POLICIES,
    ProfileSet,
    Trace,
    compute_weights,
    make_model,
    offline_optimal,
    run_policy,
)

profiles = ProfileSet(retrain=[(0.0, 0.0), (1.0, 10.0)], infer=[(0.6, 2.0), (1.0, 5.0)])
model = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0)
trace = Trace(d=(1.0, 1.0), c=(12.0, 5.0), d_min=1.0, d_max=1.0)

print("schedule weights (v pays future accuracy per unit gain, w pays current profit):")
for t in range(1, trace.horizon + 1):
    v, w, lam = compute_weights(t, trace.horizon, model, trace.d_min, trace.d_max, profiles.min_profit)
    print(f"  t={t}: v={v:.4f}  w={w:.4f}  lambda={lam:.4f}")
print()

for policy in POLICIES:
    result = run_policy(policy, trace, profiles, model)
    picks = ", ".join(f"({i},{j})" for i, j in zip(result.retrain_index, result.infer_index))
    print(f"{policy:>22}: decisions [{picks}]  total {result.total:.4f}")

oracle = offline_optimal(trace, profiles, model)
picks = ", ".join(f"({i},{j})" for i, j in zip(oracle.retrain_index, oracle.infer_index))
print(f"{'offline optimum':>22}: decisions [{picks}]  total {oracle.total:.4f}")
print()

print("accuracy trajectory under the optimum (z = volume-weighted gain so far):")
z = d_sum = 0.0
for t, i in enumerate(oracle.retrain_index, 1):
    z += trace.d[t - 1] * profiles.retrain[i - 1].gain
    d_sum += trace.d[t - 1]
    print(f"  after slot {t}: z={z:.2f}, d_sum={d_sum:.0f}, f={model.eval(z / d_sum):.4f}")
print()
print("the optimum retrains in slot 1 despite the weaker slot-1 inference,")
print("because the improved accuracy scores the whole of slot 2; the online")
print("schedule prices that future at v=0.18, not enough here, so it serves.")
