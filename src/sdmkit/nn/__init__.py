from .layers import (
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    Module,
    ReLU,
    Sequential,
)
from .encoders import (
    SinusoidalLocationEncoder,
    available_encoders,
    build_encoder,
    register_encoder,
)
from .surgery import modify_first_layer, modify_last_layer, strip_head
from .fusion import FusionModel

__all__ = [
    "Conv2d",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2d",
    "Linear",
    "Module",
    "ReLU",
    "Sequential",
    "SinusoidalLocationEncoder",
    "available_encoders",
    "build_encoder",
    "register_encoder",
    "modify_first_layer",
    "modify_last_layer",
    "strip_head",
    "FusionModel",
]
