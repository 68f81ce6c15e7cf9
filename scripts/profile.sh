#!/usr/bin/env bash
# PC-sampling profiler for any binary of this repository, with no
# dependency beyond gcc, python3 and binutils' addr2line.
#
# The first run compiles a small LD_PRELOAD sampler into
# build-profile/pcprof.so (outside the CMake build, which it never
# touches). The sampler arms ITIMER_PROF in every process that loads
# it, records the interrupted PC on each SIGPROF, and at exit writes
# the PCs together with that process's module map (each module's load
# bias, so PIE and shared-library addresses symbolize correctly per
# process). The binary runs unchanged: its stdout and stderr pass
# through, and child processes it execs are profiled too.
#
# The report goes to stderr. Each sample is symbolized with
# `addr2line -f -i -C`, which yields the inline chain at that PC, and
# counted three ways:
#   innermost  the function whose code the PC is in, after inlining
#              is undone (where the time is spent);
#   outermost  the function the compiler emitted (the symbol);
#   inclusive  every function on the inline chain, once per sample
#              (a stage's total, e.g. everything inlined into the
#              commit loop).
# The chain stops at the emitted function: there is no unwinding
# across real calls. Build with debug info (the default
# RelWithDebInfo build/ tree) for inline chains; without it only the
# outermost names are known.
#
# Sampling rate: the timer asks for 1 kHz of CPU time, but Linux
# delivers process CPU timers at the scheduler tick, so samples arrive
# at CONFIG_HZ per busy CPU second (~250 Hz on a stock x86-64 kernel
# with HZ=250). The report prints the rate it got. A 1 s run gives a
# few hundred samples; profile runs of 10 s or more for stage splits
# to a percent.
#
# With --lines, a fourth table counts the innermost file:line of the
# samples whose innermost source file contains the given substring:
# where inside a function the time goes (a hash, a loop's bookkeeping
# or its prologue), which the function tables cannot say.
#
# Usage: scripts/profile.sh [--top N] [--lines SUBSTR] <binary> [args...]
#        scripts/profile.sh --self-test
#   --top N         rows per table (default 25)
#   --lines SUBSTR  add the file:line table for innermost files whose
#                   path contains SUBSTR (e.g. sim/simulator.cc)
#   --self-test     profiles build/examples/quickstart and fails unless
#                   the report names hp:: functions and has a
#                   src/ file:line table (scripts/tier1.sh runs it
#                   after stage 1 so the script cannot rot)

set -euo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd)"
top=25

if [[ "${1:-}" == "--self-test" ]]; then
    bin="$repo/build/examples/quickstart"
    [[ -x "$bin" ]] || { echo "profile.sh: build $bin first" >&2; exit 1; }
    report="$("$0" --top 10 --lines src/ "$bin" 2>&1 >/dev/null)"
    if ! grep -q 'hp::' <<<"$report"; then
        printf '%s\n' "$report" >&2
        echo "profile.sh: self-test FAILED (no hp:: frames)" >&2
        exit 1
    fi
    if ! grep -Eq '^ +[0-9]+ +[0-9.]+%  \S*src/\S+:[0-9]+$' <<<"$report"
    then
        printf '%s\n' "$report" >&2
        echo "profile.sh: self-test FAILED (no src/ file:line rows)" >&2
        exit 1
    fi
    echo "profile.sh: self-test OK ($(grep -m1 '^samples' <<<"$report"))"
    exit 0
fi
lines=""
while [[ "${1:-}" == "--top" || "${1:-}" == "--lines" ]]; do
    [[ $# -ge 2 ]] || { echo "profile.sh: $1 needs a value" >&2; exit 2; }
    if [[ "$1" == "--top" ]]; then top="$2"; else lines="$2"; fi
    shift 2
done
if [[ $# -lt 1 ]]; then
    sed -n '/^# Usage:/,/^$/p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi

# ---- The sampler, rebuilt when this script changes. ----
outdir="$repo/build-profile"
so="$outdir/pcprof.so"
if [[ ! -f "$so" || "$0" -nt "$so" ]]; then
    mkdir -p "$outdir"
    cat >"$outdir/pcprof.c" <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1ul << 22)

static unsigned long *samples;
static atomic_ulong count;

static void
onProf(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = ctx;
#if defined(__x86_64__)
    unsigned long pc = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    unsigned long pc = uc->uc_mcontext.pc;
#else
#error "pcprof: unsupported architecture"
#endif
    unsigned long i = atomic_fetch_add(&count, 1);
    if (i < MAX_SAMPLES)
        samples[i] = pc;
}

__attribute__((constructor)) static void
pcprofStart(void)
{
    if (!getenv("PCPROF_OUT"))
        return;
    samples = mmap(NULL, MAX_SAMPLES * sizeof(*samples),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
    if (samples == MAP_FAILED) {
        samples = NULL;
        return;
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

static int
writeModule(struct dl_phdr_info *info, size_t size, void *arg)
{
    (void)size;
    FILE *f = arg;
    char exe[4096] = "";
    const char *name = info->dlpi_name;
    if (!name || !*name) {
        ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
        if (n <= 0)
            return 0;
        exe[n] = '\0';
        name = exe;
    }
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X))
            continue;
        unsigned long lo = info->dlpi_addr + ph->p_vaddr;
        fprintf(f, "module %lx %lx %lx %s\n",
                (unsigned long)info->dlpi_addr, lo, lo + ph->p_memsz,
                name);
    }
    return 0;
}

__attribute__((destructor)) static void
pcprofStop(void)
{
    if (!samples)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096];
    snprintf(path, sizeof(path), "%s/%d.pcprof", getenv("PCPROF_OUT"),
             (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    fprintf(f, "cpu_s %.3f\n",
            ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
                (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6);
    dl_iterate_phdr(writeModule, f);
    unsigned long n = atomic_load(&count);
    if (n > MAX_SAMPLES)
        n = MAX_SAMPLES;
    for (unsigned long i = 0; i < n; ++i)
        fprintf(f, "%lx\n", samples[i]);
    fclose(f);
}
EOF
    gcc -O2 -fPIC -shared -o "$so.tmp" "$outdir/pcprof.c"
    mv "$so.tmp" "$so"
fi

# ---- Run the binary under the sampler. ----
raw="$(mktemp -d)"
trap 'rm -rf "$raw"' EXIT
status=0
PCPROF_OUT="$raw" LD_PRELOAD="$so${LD_PRELOAD:+:$LD_PRELOAD}" "$@" || status=$?

# ---- Symbolize and report. ----
python3 - "$raw" "$top" "$lines" >&2 <<'EOF'
import collections, glob, os, subprocess, sys

raw, top, line_filter = sys.argv[1], int(sys.argv[2]), sys.argv[3]
samples = []          # (module path, offset) per sample
cpu_s = 0.0
procs = 0
for path in sorted(glob.glob(os.path.join(raw, '*.pcprof'))):
    procs += 1
    modules = []      # (lo, hi, bias, path)
    with open(path) as f:
        for line in f:
            if line.startswith('cpu_s '):
                cpu_s += float(line.split()[1])
            elif line.startswith('module '):
                _, bias, lo, hi, name = line.rstrip('\n').split(' ', 4)
                modules.append((int(lo, 16), int(hi, 16), int(bias, 16),
                                name))
            else:
                pc = int(line, 16)
                for lo, hi, bias, name in modules:
                    if lo <= pc < hi:
                        samples.append((name, pc - bias))
                        break
                else:
                    samples.append(('[unknown]', 0))

# One addr2line pass per module over its distinct offsets; -a prints
# each address before its inline chain (innermost first), each
# function followed by its file:line.
chains = {}
where = {}            # (module, offset) -> innermost file:line
by_module = collections.defaultdict(set)
for mod, off in samples:
    by_module[mod].add(off)
for mod, offs in by_module.items():
    label = mod if mod.startswith('[') else '[%s]' % os.path.basename(mod)
    if not os.path.exists(mod):
        for off in offs:
            chains[(mod, off)] = [label]
        continue
    offs = sorted(offs)
    out = subprocess.run(
        ['addr2line', '-f', '-i', '-C', '-a', '-e', mod],
        input='\n'.join('%x' % o for o in offs) + '\n',
        capture_output=True, text=True).stdout.splitlines()
    cur, funcs, i = None, [], 0
    results, places = {}, {}
    while i < len(out):
        line = out[i]
        if line.startswith('0x'):
            if cur is not None:
                results[cur] = funcs
            cur, funcs = int(line, 16), []
            i += 1
            continue
        funcs.append(line)
        if cur not in places and i + 1 < len(out):
            places[cur] = out[i + 1].split(' (discriminator')[0]
        i += 2        # function line, then its file:line
    if cur is not None:
        results[cur] = funcs
    for off in offs:
        fs = [f for f in results.get(off, []) if f != '??']
        chains[(mod, off)] = fs or [label]
        where[(mod, off)] = places.get(off, '??:0')

n = len(samples)
rate = n / cpu_s if cpu_s > 0 else 0.0
print('samples %d from %d process(es), %.2f s CPU, %.0f Hz per CPU second'
      % (n, procs, cpu_s, rate))
if n == 0:
    sys.exit(0)
inner, outer, incl = (collections.Counter() for _ in range(3))
for key in samples:
    chain = chains[key]
    inner[chain[0]] += 1
    outer[chain[-1]] += 1
    for fn in set(chain):
        incl[fn] += 1
tables = [('innermost', inner), ('outermost', outer), ('inclusive', incl)]
if line_filter:
    at = collections.Counter(
        where.get(key, '??:0') for key in samples
        if line_filter in where.get(key, '??:0').rsplit(':', 1)[0])
    tables.append(("innermost file:line in '%s'" % line_filter, at))
for title, table in tables:
    print('\n%s (top %d)' % (title, top))
    for fn, c in table.most_common(top):
        name = fn if len(fn) <= 110 else fn[:107] + '...'
        print('%7d %6.2f%%  %s' % (c, 100.0 * c / n, name))
EOF
exit "$status"
