"""One full mass-imputation run on synthetic data, step by step.

Draws a finite population, selects a volunteer sample (outcome observed,
selection mechanism unknown to the analyst) and a design-weighted
reference sample (outcome missing), fits the two scores, matches, and
imputes.  Because the data are synthetic, every estimate can be checked
against the quantity it chases.
"""

import numpy as np

from dsm import (
    SampleA,
    SampleB,
    ScenarioSpec,
    build_score_matrix,
    find_matches,
    fit_scores,
    gen_population,
    impute,
    point_estimates,
    poisson_sample,
    pps_sample,
)

spec = ScenarioSpec(n_pop=20000, n_a=500, n_b=1000, seed=7)
rng = np.random.default_rng(spec.seed)
pop = gen_population(spec, rng)

# Volunteer units arrive by independent Bernoulli selection; the
# reference sample is a fixed-size unequal-probability draw whose
# weights d = 1/pi the analyst does observe.
idx_a = poisson_sample(pop.pi_a, rng)
idx_b = pps_sample(pop.pi_b, spec.n_b, rng)
a = SampleA(pop.x[idx_a], pop.y[idx_a])
b = SampleB(pop.x[idx_b], 1.0 / pop.pi_b[idx_b])
print(f"volunteer sample: {a.n} units with outcome")
print(f"reference sample: {b.n} units, weights sum to {b.d.sum():,.0f}")

# Two scores collapse the four covariates into a 2-D matching space.
fit = fit_scores(a, b)
print(f"\nsampling-score fit: converged in {fit.iterations} Newton steps "
      f"(gradient norm {fit.grad_norm:.1e})")
print(f"prognostic coefficients: {np.array2string(fit.theta_y, precision=3)}")

scores = build_score_matrix(a, b, fit)
plan = find_matches(scores, m=3, d_b=b.d)
print(f"\nmatched {plan.n_b} reference units to {plan.m} donors each")
print(f"mean score distance {plan.distances.mean():.4f}, "
      f"busiest donor used {int(plan.k_counts.max())} times")

# Matched-donor imputations, then every point estimate at once.
y_hat = impute(plan, a.y)
est = point_estimates(plan, fit, a, b)

true_b_mean = pop.y[idx_b].mean()
true_pop_mean = pop.y.mean()
naive = a.y.mean()
print(f"\nreference-sample mean:  imputed {est.mu_b:.3f}  "
      f"debiased {est.mu_b_debiased:.3f}  actual {true_b_mean:.3f}")
print(f"population mean:        weighted {est.mu_dsm:.3f}  "
      f"debiased {est.mu_dsm_debiased:.3f}  actual {true_pop_mean:.3f}")
print(f"volunteer mean (no correction): {naive:.3f}  "
      f"(off by {100 * (naive - true_pop_mean) / true_pop_mean:+.1f}%)")
print(f"estimated population size: {est.n_hat:,.0f} of {pop.n:,}")
