#!/usr/bin/env python3
"""Codegen guard for the sorted-array search kernels.

Compiles tests/codegen/branchless_probe.cpp to assembly at -O2 and at
-O3 and fails if, inside either probe function (or a function it calls
that the same file defines), a conditional jump consumes flags computed
from a loaded value: a cmp/test (or flag-setting arithmetic) that reads
memory, or reads a register that holds a value loaded from memory or
computed from one (`mov (mem), %r; cmp %r, %q; jb`). That is a branch
on a loaded key, which a cache-resident search mispredicts about every
other probe. Register taint is followed in program order through each
function body, and through stack spills and their reloads; a call
clears the caller-saved registers.

  check_branchless.py <c++ compiler> <repository root>

The flags are fixed (-std=c++20 -O2/-O3 -S), so a sanitizer build checks
the same code a Release build runs. Exit 0: clean. Exit 1: a branch on a
loaded key (the offending lines are printed). Exit 77: not an x86-64
GCC/Clang target, so the scan does not apply.
"""
import os
import re
import subprocess
import sys

SKIP = 77
PROBES = ("dici_probe_branchless", "dici_probe_batched_branchless")
OPT_LEVELS = ("-O2", "-O3")

# Instructions that leave the flags alone, so a cmp/test before them
# still decides a conditional jump after them.
FLAG_NEUTRAL = re.compile(
    r"^(mov|lea|push|pop|nop|prefetch|set|cmov|xchg|bswap|not|vmov|vpbroadcast)")
# Instructions that only compare: they set flags and write no register.
COMPARE = re.compile(r"^(cmp|test|bt[a-z]?$|v?u?comis|v?ptest)")
# Instructions whose last operand is written without being read.
WRITE_ONLY = re.compile(
    r"^(mov|lea|set|cvt|vmov|vbroadcast|vpbroadcast|v?p?movmsk|v?pmov[sz]x"
    r"|bsf|bsr|lzcnt|tzcnt|popcnt|pop)")
# Same-register forms of these zero their destination.
ZERO_IDIOM = re.compile(r"^(xor|sub|v?pxor|v?xorp[sd]|v?psub)")
NO_DESTINATION = re.compile(r"^(push|call|jmp|ret|nop|prefetch)")
COND_JUMP = re.compile(r"^j(?!mp)[a-z]+$")
CALL_OR_TAIL = re.compile(r"^(call|jmp)[a-z]*$")

LEGACY_REGS = {
    name: "r" + base
    for base in ("ax", "bx", "cx", "dx")
    for name in (base[0] + "l", base[0] + "h", base, "e" + base, "r" + base)
}
LEGACY_REGS.update({
    name: "r" + base
    for base in ("si", "di", "bp", "sp")
    for name in (base + "l", base, "e" + base, "r" + base)
})
CALLER_SAVED = {"rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11"}


def target_is_x86_64_gnu(compiler):
    try:
        macros = subprocess.run(
            [compiler, "-dM", "-E", "-x", "c++", os.devnull],
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return False
    return "__x86_64__" in macros and "__GNUC__" in macros


def function_bodies(asm):
    """Map each label that starts a function body to its instructions."""
    bodies = {}
    current = None
    for raw in asm.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith(":") and not line.startswith("."):
            current = line[:-1]
            bodies[current] = []
        elif current is not None:
            if line.startswith(".cfi_endproc"):
                current = None
            elif line.endswith(":") or not line.startswith("."):
                bodies[current].append(line)
    return bodies


def operands(line):
    """The comma-separated operands of an AT&T instruction line."""
    parts = line.split(None, 1)
    if len(parts) < 2:
        return []
    ops, depth, current = [], 0, ""
    for ch in parts[1]:
        if ch == "," and depth == 0:
            ops.append(current.strip())
            current = ""
            continue
        depth += {"(": 1, ")": -1}.get(ch, 0)
        current += ch
    ops.append(current.strip())
    return ops


def register(op):
    """Canonical name of a register operand (eax, ax, al -> rax), else None."""
    if not op.startswith("%"):
        return None
    name = op[1:]
    numbered = re.match(r"^(r\d+)[dwb]?$", name)
    if numbered:
        return numbered.group(1)
    vector = re.match(r"^[xyz]mm(\d+)$", name)
    if vector:
        return "v" + vector.group(1)
    return LEGACY_REGS.get(name, name)


def stack_slot(op):
    """`op` if it is a plain stack slot (a spill), else None."""
    return op if re.match(r"^-?\d*\(%(rsp|rbp)\)$", op) else None


def key_branches(body):
    """Conditional jumps whose flags come from a loaded value."""
    found = []
    tainted = set()      # registers holding a loaded (or derived) value
    tainted_slots = set()  # stack slots a tainted register was spilled to
    flags_from = None    # the flag-setting line, if its inputs were loaded
    for line in body:
        if line.endswith(":"):  # a jump target: flags may come from elsewhere
            flags_from = None
            continue
        mnemonic = line.split()[0]
        if COND_JUMP.match(mnemonic):
            if flags_from is not None:
                found.append(f"{flags_from}  ->  {line}")
            continue
        if mnemonic.startswith("call"):
            tainted -= CALLER_SAVED
            flags_from = None
            continue
        ops = operands(line)
        lea = mnemonic.startswith("lea")

        def derived_from_load(op):
            if op in tainted_slots:
                return True
            if "(" in op and not stack_slot(op):
                # A load from data memory; lea only computes an address.
                return not lea or any(register(reg) in tainted
                                      for reg in re.findall(r"%\w+", op))
            return register(op) in tainted

        compare = COMPARE.match(mnemonic)
        write_only = WRITE_ONLY.match(mnemonic)
        if compare:
            sources = ops
        elif len(ops) == 1:
            sources = [] if write_only else ops
        else:
            sources = ops[:-1] if write_only else ops
        derived = any(derived_from_load(op) for op in sources)
        if compare:
            flags_from = line if derived else None
            continue
        if (ZERO_IDIOM.match(mnemonic) and len(ops) >= 2 and
                register(ops[0]) is not None and
                register(ops[0]) == register(ops[-1])):
            derived = False
        if ops and not NO_DESTINATION.match(mnemonic):
            dest = ops[-1]
            for written, name in ((tainted, register(dest)),
                                  (tainted_slots, stack_slot(dest))):
                if name is not None:
                    (written.add if derived else written.discard)(name)
        if not FLAG_NEUTRAL.match(mnemonic):
            flags_from = line if derived else None
    return found


def reachable(bodies, root):
    """`root` plus every function it calls or tail-calls in this file."""
    seen, stack = set(), [root]
    while stack:
        name = stack.pop()
        if name in seen or name not in bodies:
            continue
        seen.add(name)
        for line in bodies[name]:
            parts = line.split()
            if len(parts) == 2 and CALL_OR_TAIL.match(parts[0]):
                stack.append(parts[1].split("@", 1)[0])
    return sorted(seen)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    compiler, root = argv[1], argv[2]
    if not target_is_x86_64_gnu(compiler):
        print(f"skip: {compiler} does not target x86-64 with GCC/Clang")
        return SKIP
    source = os.path.join(root, "tests", "codegen", "branchless_probe.cpp")
    failures = 0
    for opt in OPT_LEVELS:
        cmd = [compiler, "-std=c++20", opt, "-S", "-o", "-", "-I", root, source]
        result = subprocess.run(cmd, capture_output=True, text=True)
        if result.returncode != 0:
            print(" ".join(cmd), file=sys.stderr)
            print(result.stderr, file=sys.stderr)
            return 1
        bodies = function_bodies(result.stdout)
        for probe in PROBES:
            if probe not in bodies:
                print(f"{opt}: no body for {probe} in the assembly")
                failures += 1
                continue
            for name in reachable(bodies, probe):
                for hit in key_branches(bodies[name]):
                    print(f"{opt} {probe} ({name}): branch on a loaded key: {hit}")
                    failures += 1
        print(f"{opt}: checked {', '.join(PROBES)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
