"""Shared JSON loader for the Python gates and merge tools in tools/.

A missing, truncated or binary artifact must fail a gate with a one-line
diagnosis, not a traceback (CI wires stderr to the checks and
tools/assert_rejects.sh refuses any traceback). The tools run as scripts,
so `import jsonfile` resolves to this file.
"""

import json
import sys


def load(path, parse_float=None, die=sys.exit):
    """Parses the JSON document at `path`, or calls `die` with one line.

    parse_float=str keeps floats as the exact bytes the C++ writer
    printed, for byte-identical comparisons and merges.
    """
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f, parse_float=parse_float)
    except OSError as e:
        die(f"{path}: cannot read: {e.strerror or e}")
    except UnicodeDecodeError:
        die(f"{path}: not UTF-8 text (binary file?)")
    except json.JSONDecodeError as e:
        die(f"{path}: malformed JSON: {e}")
