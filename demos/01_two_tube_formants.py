"""Two-tube vocal tracts: same vowel, different speakers, different formants.

Four hypothetical speakers say the same vowel. Each speaker is a two-tube
vocal tract (a narrow pharyngeal cavity feeding a wide oral cavity); speakers
differ only in the oral-cavity length, which is how real tracts mostly
differ. The resulting resonances (formants) land in different places even
though the "vowel" is the same, and a plain translation of the frequency axis
cannot line them up. A nonlinear warp of the axis can; this demo tries the
log axis, on which a whole tract scaled by one factor would move every formant
by the same step.
"""

import numpy as np

from speechscale import (
    LogWarp,
    TubeConfig,
    align_population,
    records_from_tokens,
    synth_population,
)

base = TubeConfig.two_tube(back_length=0.09, front_length=0.08,
                           back_area=1.0, front_area=8.0)
population = synth_population(base, speaker_count=4,
                              oral_length_range=(0.055, 0.085),
                              formant_count=3, seed=20)

print("raw formants (Hz) per speaker:")
for fs in population:
    print(f"  {fs.speaker_id}: " + "  ".join(f"{f:7.1f}" for f in fs.formants))

diffs = np.diff([fs.formants for fs in population], axis=0)
print("\nbetween consecutive speakers the three formants move by different")
print("amounts (Hz), so no single translation aligns them:")
for row in diffs:
    print("  " + "  ".join(f"{d:+7.1f}" for d in row))

# Warp the frequency axis with the natural log: nu = ln(f)
warp = LogWarp()
records = records_from_tokens(population)
result = align_population(records, warp, vowel="aa")

print("\nwarped formants (scale units):")
for sid, row in zip(result.speaker_ids, result.formants_warped):
    print(f"  {sid}: " + "  ".join(f"{v:7.3f}" for v in row))

print("\nafter warping, one translation per speaker shifts all its formants:")
for sid, alpha in zip(result.speaker_ids, result.translations):
    print(f"  {sid}: shift by {alpha:+.3f}")
print("\nper-formant spread across speakers (standard deviation):")
print("  before translation:", np.array2string(result.spread_before, precision=3))
print("  after translation: ", np.array2string(result.spread_after, precision=3))
print("\nThe spread falls for F1 and F2 but rises for F3: only the oral cavity")
print("changes length, so the log axis is not the right warp for these tracts.")
print("Estimating the warp that actually does the job from data is the subject")
print("of the next demo.")
