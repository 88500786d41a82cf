"""Late-fusion multimodal model: per-modality encoders, concatenation,
dropout, and a two-layer classification head.

Its children are enc.<modality> for each encoder, then head, so parameters
are named enc.patch.0.w ... head.3.b; checkpoints key on those names.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .layers import Dropout, Linear, Module, ReLU, Sequential


class FusionModel(Module):
    """Concatenate modality embeddings, then dropout -> affine -> ReLU -> affine.

    forward takes a dict modality name -> batch array matching each
    encoder's expected input; embeddings are fused in the order of the
    encoders dict. The fused width is the sum of the encoders'
    embedding_dim; head init draws from rng.
    """

    def __init__(self, encoders: dict[str, Module], num_classes: int, hidden_dim: int,
                 dropout_p: float, rng: np.random.Generator):
        super().__init__()
        self.encoders = dict(encoders)
        self.num_classes = num_classes
        in_dim = sum(enc.embedding_dim for enc in self.encoders.values())
        self.head = Sequential(
            [
                Dropout(dropout_p),
                Linear(in_dim, hidden_dim, rng),
                ReLU(),
                Linear(hidden_dim, num_classes, rng),
            ]
        )

    def children(self):
        return [(f"enc.{name}", enc) for name, enc in self.encoders.items()] + [("head", self.head)]

    def forward(self, batch: dict[str, np.ndarray], training: bool = False) -> np.ndarray:
        embeddings = []
        for name, enc in self.encoders.items():
            if name not in batch:
                raise ShapeError(f"batch missing modality {name!r}")
            emb = enc.forward(batch[name], training=training)
            if emb.ndim != 2 or emb.shape[1] != enc.embedding_dim:
                raise ShapeError(
                    f"modality {name!r} produced shape {emb.shape}, expected "
                    f"(N, {enc.embedding_dim})"
                )
            embeddings.append(emb)
        fused = np.concatenate(embeddings, axis=1)
        return self.head.forward(fused, training=training)

    def backward(self, dlogits: np.ndarray) -> None:
        dfused = self.head.backward(dlogits)
        offset = 0
        for enc in self.encoders.values():
            enc.backward(dfused[:, offset : offset + enc.embedding_dim])
            offset += enc.embedding_dim
