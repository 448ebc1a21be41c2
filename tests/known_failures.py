"""Tier-1 gate on a pytest junit XML: passes when exactly the three
acceptance sub-claims that do not hold for the one-ring operator fail,
each with the value it measures today in its message, and every other
test passes. A change to the operator's bias then fails the gate.

    PYTHONPATH=src python -m pytest -q --junitxml=t1.xml; python tests/known_failures.py t1.xml
"""

import sys
import xml.etree.ElementTree as ET

# each deliberate failure by name, with the value it measures today
known = {"test_c06_icosphere_refinement": "at level 4 is 0.6675",
         "test_c08_laplacian_quadratic_field": "interior median is 2.666667",
         "test_c09_flow_tracks_shrinking_sphere": "effective radius 0.8544"}
cases = list(ET.parse(sys.argv[1]).iter("testcase"))
failed = {c.get("name"): (f.get("message") or "") + (f.text or "")
          for c in cases for f in (c.find("failure"), c.find("error")) if f is not None}
print(f"{len(cases)} tests, failed: {sorted(failed)}")
sys.exit(0 if cases and failed.keys() == known.keys()
         and all(value in failed[name] for name, value in known.items()) else 1)
