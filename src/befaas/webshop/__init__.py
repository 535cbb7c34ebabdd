"""Built-in e-commerce benchmark application (17 functions + KV-backed carts)."""
from .functions import CALL_GRAPH, KV_SERVICE, build_app
