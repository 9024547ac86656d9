"""Label synthetic degradations and print the eight-category summary.

Run from the repository root:

    python3 demos/02_classify_degradations.py
"""

from aquaclear import (
    RANK_ORDER,
    ClassifierThresholds,
    DegradationFlags,
    archetype_for_category,
    classify,
    detect_color_cast,
    laplacian_variance,
    make_archetype,
    summarize,
    summary_csv,
)

thresholds = ClassifierThresholds()
print("default thresholds:")
print(f"  cast_ratio       {thresholds.cast_ratio}")
print(f"  brightness_floor {thresholds.brightness_floor}")
print(f"  sharpness_floor  {thresholds.sharpness_floor}\n")

# Each archetype is built well past its thresholds, so the verdicts are firm.
img = make_archetype(DegradationFlags(color_cast=True, low_light=True, blurred=True), seed=3)
flags, category = classify(img, thresholds)
print("archetype with every defect:")
print(f"  flags    cast={flags.color_cast} lowlight={flags.low_light} blur={flags.blurred}")
print(f"  category rank {category.rank}: {category.description}\n")

# The cast detector also hands back the numbers behind its verdict.
_, diag = detect_color_cast(img, thresholds)
print(f"  channel means                  ({diag.mean_r:.3f}, {diag.mean_g:.3f}, {diag.mean_b:.3f})")
print(f"  max relative channel deviation {diag.max_rel_dev:.3f}")
print(f"  laplacian variance             {laplacian_variance(img):.6f}\n")

# Twenty images per category, then the tabular summary.
labels = []
for category in RANK_ORDER:
    for seed in range(20):
        _, got = classify(archetype_for_category(category, seed=seed, size=32))
        labels.append(got)

counts = summarize(labels)  # {category: count}, in rank order
print("category counts over 160 synthetic images:")
for cat, n in counts.items():
    print(f"  rank {cat.rank}  {cat.description:<38} {n:>3}")

print("\nsummary.csv content:")
print(summary_csv(counts))
