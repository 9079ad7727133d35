"""Persistent homology of finite filtered complexes and the surrounding
algebra: barcodes, persistence diagrams, cap numbers and generalized Morse
inequalities, bottleneck distance, and nerve/Vietoris duality.  The package
re-exports the ``__all__`` of each module below."""

# Each module under a private name first: the star import of `.bottleneck`
# rebinds the package's `bottleneck` to the function.
from . import barcode as _barcode, bottleneck as _bottleneck, covers as _covers, diagram as _diagram
from . import filtration as _filtration, gallery as _gallery, morse as _morse
from .barcode import *
from .bottleneck import *
from .covers import *
from .diagram import *
from .filtration import *
from .gallery import *
from .morse import *

__version__ = "0.1.0"

__all__ = []
__all__ += _barcode.__all__
__all__ += _bottleneck.__all__
__all__ += _covers.__all__
__all__ += _diagram.__all__
__all__ += _filtration.__all__
__all__ += _gallery.__all__
__all__ += _morse.__all__
