"""Walk through the image container, PPM round trips, and color conversions.

Run from the repository root:

    python3 demos/01_image_io_and_color.py
"""

import tempfile
from pathlib import Path

import numpy as np

from aquaclear import ImageF32, load_ppm, rgb_to_hsv, rgb_to_lab, save_ppm

# Images are planar float32, channels first, values in [0, 1].
ramp = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
data = np.stack([ramp, ramp * 0.5, 1.0 - ramp]).astype(np.float32)
img = ImageF32(data)
print(f"image: {img.channels} channels, {img.height}x{img.width}")

# The array is frozen so results cannot be mutated behind your back.
try:
    img.data[0, 0, 0] = 0.0
except ValueError:
    print("pixel writes raise, as intended")

# Saving quantizes each sample with round-half-away-from-zero. The work
# directory is removed when the block ends.
with tempfile.TemporaryDirectory(prefix="aquaclear_demo_") as tmp:
    out_dir = Path(tmp)
    print(f"\nwriting demo files to {out_dir}")
    path = out_dir / "ramp.ppm"
    save_ppm(img, path)
    back = load_ppm(path)
    err = float(np.abs(back.data.astype(np.float64) - img.data).max())
    print(f"round-trip worst-case error {err:.6f} (bound is 1/510 = {1/510:.6f})")

    # A second save of the loaded image reproduces the file byte for byte.
    path2 = out_dir / "ramp_again.ppm"
    save_ppm(back, path2)
    print(f"re-save byte-identical: {path.read_bytes() == path2.read_bytes()}")

# HSV works on the hexcone model; hue lives in [0, 1).
hsv = rgb_to_hsv(img)
print(f"\nhue range      [{hsv.data[0].min():.3f}, {hsv.data[0].max():.3f}]")
print(f"value range    [{hsv.data[2].min():.3f}, {hsv.data[2].max():.3f}]")

# Lab is float64 because the white point math deserves the headroom.
lab = rgb_to_lab(img)
print(f"L* range       [{lab[0].min():.2f}, {lab[0].max():.2f}]")

white = ImageF32(np.ones((3, 2, 2), dtype=np.float32))
wl = rgb_to_lab(white)
print(f"white maps to  L*={wl[0, 0, 0]:.1f}, a*={wl[1, 0, 0]:.1e}, b*={wl[2, 0, 0]:.1e}")
