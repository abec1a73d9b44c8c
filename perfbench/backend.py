"""The click workload's backend: a tiny application program.

    python perfbench/backend.py SEED

Reads the frontend's echo lines on stdin; to the k-th ``press b`` it
answers with one ``%sV`` line setting the result label to the seeded
k-th reply (``gen.click_reply``).  Any other line gets a reply the host
will reject, so a corrupted echo shows up as a failed interaction.
"""

import sys

import gen


def main(seed):
    k = 0
    while True:
        line = sys.stdin.readline()
        if not line:
            return 0
        line = line.rstrip("\n")
        if line.startswith("error:"):
            continue  # the host counts errors through its error sink
        if line == "press b":
            text = gen.click_reply(seed, k)
            k += 1
        else:
            text = "unexpected line of %d bytes" % len(line)
        sys.stdout.write("%%sV result label {%s}\n" % text)
        sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
