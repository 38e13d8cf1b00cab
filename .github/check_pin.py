"""Check a report's pinned hash: python .github/check_pin.py FILE HASH.

Exits 1 with a message when FILE cannot be read as a JSON object with a
payload_hash, or when that hash is not HASH.
"""

import json
import sys

path, want = sys.argv[1:]
try:
    with open(path) as fh:
        got = json.load(fh)["payload_hash"]
except (OSError, ValueError, KeyError, TypeError) as exc:
    sys.exit(f"{path}: no payload_hash ({type(exc).__name__}: {exc})")
if got != want:
    sys.exit(f"{path}: payload_hash {got}, pinned {want}")
