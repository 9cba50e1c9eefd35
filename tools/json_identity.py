#!/usr/bin/env python3
"""Checks that JSON documents are identical once their timing fields go.

    python3 tools/json_identity.py --keys throughput_sps,threads \\
        --suffixes _ns,_us,_ms a.json b.json [...]

A dict key is dropped, at any depth, when it is one of --keys, contains
"time", or ends with one of --suffixes. Every remaining field must match
the first file's; otherwise the script names the differing files and
exits 1.
"""
import argparse
import json
import sys


def strip(value, keys, suffixes):
    if isinstance(value, dict):
        return {k: strip(v, keys, suffixes) for k, v in value.items()
                if k not in keys and 'time' not in k
                and not k.endswith(suffixes)}
    if isinstance(value, list):
        return [strip(v, keys, suffixes) for v in value]
    return value


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument('--keys', default='', help='keys to drop')
    parser.add_argument('--suffixes', default='', help='key suffixes to drop')
    parser.add_argument('files', nargs='+')
    args = parser.parse_args()
    keys = set(args.keys.split(','))
    suffixes = tuple(s for s in args.suffixes.split(',') if s)
    runs = {}
    for name in args.files:
        with open(name) as f:
            runs[name] = json.dumps(strip(json.load(f), keys, suffixes),
                                    sort_keys=True)
    ref_name, ref = next(iter(runs.items()))
    bad = [name for name, text in runs.items() if text != ref]
    if bad:
        sys.exit(f'output differs from {ref_name}: {bad}')
    print(f'{len(runs)} runs identical modulo timing fields')


if __name__ == '__main__':
    main()
