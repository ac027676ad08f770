"""Exit 0 when exactly the named tests failed in a JUnit XML report.

Usage: python .github/expect_failures.py REPORT NAME...

Each NAME is spelled ``classname::name``, as pytest's JUnit report gives it.
"""

import sys
import xml.etree.ElementTree as ET

report, *expected = sys.argv[1:]
cases = list(ET.parse(report).iter("testcase"))
failed = {
    f"{case.get('classname')}::{case.get('name')}"
    for case in cases
    if case.find("failure") is not None or case.find("error") is not None
}
print(f"{len(cases)} tests, failed: {sorted(failed)}")
if failed != set(expected):
    sys.exit(f"expected exactly {sorted(expected)} to fail")
