"""Version and build-hash metadata stamped into sweep reports."""

import hashlib
import pathlib
from functools import lru_cache

VERSION = "0.3.0"


@lru_cache(maxsize=1)
def build_hash() -> str:
    """Short digest over the package sources; identical builds produce
    identical sweep metadata."""
    root = pathlib.Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]
