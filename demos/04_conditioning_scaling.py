# How the point-count scaling rule decides stability.
#
# The Gram condition number cond(A) controls both noise amplification and
# solvability of the discrete least-squares problem.  Scaling the number of
# collocation points m quadratically in the space dimension N keeps cond(A)
# bounded on the deterministic grid; linear scaling with a small constant
# does not.  Random sampling needs its own (larger) oversampling to match.

from weilfit.study import StudyConfig, cond_study

RULES = [("quadratic", 0.5), ("linear", 2.0), ("linear", 12.0)]

print("deterministic grid, d=2, total-degree spaces")
header = f"{'q':>3} {'N':>5}" + "".join(f"{f'{s} c={c:g}':>18}" for s, c in RULES)
print(header)
columns = [cond_study(StudyConfig(d=2, q_min=1, q_max=15, scaling=s, c=c))[0]
           for s, c in RULES]
for cells in zip(*columns):
    q, N, *_ = cells[0]
    print(f"{q:>3} {N:>5}" + "".join(f"{cell[-1]:>18.2f}" for cell in cells))

print("\nlinear c=2 drifts upward without bound; quadratic c=0.5 and the")
print("larger linear constant stay flat.\n")

# Same budget, random points: the average condition number over 10 draws.
print("same m as quadratic c=0.5, but uniform random points (10 draws):")
print(f"{'q':>3} {'m':>7} {'weil':>12} {'mc mean':>12} {'mc worst':>12}")
for q in (2, 4, 6, 8):
    weil = columns[0][q - 1]  # the quadratic c=0.5 row above
    (mc,), reps = cond_study(StudyConfig(d=2, q_min=q, q_max=q, scaling="quadratic",
                                         c=0.5, grid="mc_uniform", repetitions=10,
                                         seed=1234))
    print(f"{q:>3} {mc[2]:>7} {weil[-1]:>12.2f} {mc[-1]:>12.2f} "
          f"{max(cond for *_, cond in reps):>12.2f}")

print("\nThe deterministic grid needs no luck: its conditioning is a theorem,")
print("not an average.")
