"""Set-prediction pipeline for global 3D two-hand pose estimation on
deterministic synthetic scenes: camera geometry, hand-scale depth
rescaling, bipartite-matching training, and a desk-scale transformer
detector with exact reverse-mode gradients."""
