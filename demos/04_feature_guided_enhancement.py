"""Drive enhancement with CNN attention maps from two extractor heads.

Run from the repository root:

    python3 demos/04_feature_guided_enhancement.py
"""

import tempfile
from pathlib import Path

from aquaclear import (
    DegradationFlags,
    attention_map,
    build_resnet_head,
    build_vgg_head,
    extract_features,
    feature_guided_enhance,
    fuse_attention,
    init_weights,
    load_weights,
    make_archetype,
    save_weights,
    uciqe,
    uiqm,
)

img = make_archetype(DegradationFlags(True, True, True), seed=7, size=64)

# Two small heads: a plain conv stack and a strided stem with residual blocks.
vgg = init_weights(build_vgg_head(), seed=7)
resnet = init_weights(build_resnet_head(), seed=8)

feats_v = extract_features(img, vgg)
feats_r = extract_features(img, resnet)
print(f"vgg features    {feats_v.shape}")
print(f"resnet features {feats_r.shape}")

# Channel-mean (streamed band by band), normalize, upsample to image size.
attn_v = attention_map(vgg.channel_mean(img.data), img.height, img.width)
attn_r = attention_map(resnet.channel_mean(img.data), img.height, img.width)
fused = fuse_attention(attn_v, attn_r)
print(f"attention range [{fused.min():.3f}, {fused.max():.3f}]\n")

base_uciqe, base_uiqm = uciqe(img)[0], uiqm(img)[0]
print(f"input     UCIQE {base_uciqe:.4f}  UIQM {base_uiqm:.4f}")
for name, attn in (("vgg", attn_v), ("resnet", attn_r), ("fused", fused)):
    out = feature_guided_enhance(img, attn, gain=0.5)
    print(f"{name:<9} UCIQE {uciqe(out)[0]:.4f}  UIQM {uiqm(out)[0]:.4f}")

# Weights persist as a JSON manifest plus a float32 blob.
with tempfile.TemporaryDirectory(prefix="aquaclear_demo_") as tmp:
    manifest = save_weights(vgg, Path(tmp) / "vgg")
    reloaded = load_weights(build_vgg_head(), manifest)
    same = all(
        (reloaded.weights[k] == vgg.weights[k]).all() for k in vgg.weights
    )
    print(f"\nsaved to {manifest}")
    print(f"reload bit-identical: {same}")
