"""Load profiles and arrival schedules.

The load generator turns a phased rate profile into concrete arrival
timestamps. An arrival fires whenever the running integral of the rate
crosses an integer, so the arrival count is exactly the integral of the
profile: reproducible to the request.
"""
from befaas import loadgen

# The three canonical full-scale profiles.
for name in ("default", "growth", "spike"):
    profile = loadgen.PROFILE_PRESETS[name]
    arrivals = loadgen.generate_arrivals(profile)
    print(f"{name:<12} duration={profile.total_duration_s:6.0f}s arrivals={len(arrivals):>6}")

# The default profile holds 20 workflows/s for 15 minutes: 18,000 workflows.
# The spike profile runs 3.5/s for 5 min, jumps to 20/s for 10 min, and
# falls back to 3.5/s: 1050 + 12000 + 1050 = 14,100.

# Rates are piecewise linear; at a phase boundary the later phase applies.
spike = loadgen.PROFILE_PRESETS["spike"]
for t in (0, 299, 300, 899, 900, 1199):
    print(f"spike rate at t={t:>5}s: {loadgen.rate_at(spike, t):>5.1f}/s")

# The growth profile ramps linearly from 0 to 20/s, so the midpoint is 10/s.
print("growth rate at t=450s:", loadgen.rate_at(loadgen.PROFILE_PRESETS["growth"], 450))

# Desk-scale variants keep experiments short.
quick = loadgen.generate_arrivals(loadgen.PROFILE_PRESETS["default-60s"])
print(f"default-60s: {len(quick)} arrivals, first at {quick[0]}s, spacing {quick[1]-quick[0]}s")

# Four customer workflows ship with the webshop; each issues 1-9 frontend
# requests and is drawn with a fixed weight.
for spec in loadgen.WORKFLOW_PRESETS:
    print(f"workflow {spec.name:<18} weight={spec.weight:<5} steps={len(spec.steps)}: {', '.join(spec.steps)}")
