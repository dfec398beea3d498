#!/bin/sh
# Worked examples: the notable configurations, one CLI invocation each.
# Run from anywhere after `pip install -e .`; exits nonzero if any step fails.
# Its stdout is checked in as docs/worked_examples.out; refresh that file
# whenever a CLI text changes on purpose.
set -e

echo '== ordinary extremal family: A=[1,3], H=[1,2] fills [1, rk] exactly'
sumset-lab compute -A "1..3" -H "1..2" --kind ordinary

echo
echo '== restricted extremal family: A=[1,5], H=[1,2] meets rk - r(r-1)/2 = 9'
sumset-lab compute -A "1..5" -H "1..2" --kind restricted

echo
echo '== zero-inclusive restricted family: A=[0,5], H=[1,2] meets rk - r(r+1)/2 + 1 = 10'
sumset-lab compute -A "0..5" -H "1..2" --kind restricted

echo
echo '== with 0 in A the largest fold absorbs the union: HA = 2A = [0,4]'
sumset-lab compute -A "0..2" -H "1..2" --kind ordinary

echo
echo '== singleton: A={5}, H={3} gives {15}'
sumset-lab compute -A "5" -H "3" --kind ordinary

echo
echo '== a strict case: A={1,2,4} is no progression, so the union overshoots'
sumset-lab compute -A "1,2,4" -H "2,3" --kind ordinary

echo
echo '== equality forces structure: difference(A) = difference(H) * min(A)'
sumset-lab check -A "2,4,6,8" -H "1,2" --kind ordinary

echo
echo '== the same family survives dilation: A = 5*[1,6], H = {1,2}, restricted'
sumset-lab check -A "5*1..6" -H "1,2" --kind restricted

echo
echo '== boundary case the restricted hypotheses exclude (k=3 < 6):'
echo '   {1,2,4} meets the bound with multiplicity 2 yet is unstructured'
sumset-lab check -A "1,2,4" -H "2" --kind restricted

echo
echo '== every restricted equality at k=6, r=2 within [1,12] is the'
echo '   dilated-interval / consecutive-pair family (8 cases over 2 dilations)'
sumset-lab extremal --universe 12 --k 6..6 --hmax 5 --r 2..2 --kind restricted

echo
echo '== small exhaustive sweep: zero violations, zero inconsistencies'
sumset-lab verify --universe 10 --k 2..5 --hmax 4 --r 1..4 --json >/tmp/sumset-lab-report.json
echo "report written to /tmp/sumset-lab-report.json"

echo
echo 'all examples completed'
