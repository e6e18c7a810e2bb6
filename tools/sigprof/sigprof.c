/* SIGPROF sampler, loaded with LD_PRELOAD: every 1/SIGPROF_HZ seconds of
 * CPU time the handler stores the interrupted PC and the return addresses
 * found by walking frame pointers; at exit the samples go to SIGPROF_OUT
 * with a copy of /proc/self/maps, for report.py to name. The walk needs a
 * frame-pointer build (README.md) and is bounded by the main thread's
 * stack; a sample on any other thread keeps its PC only. x86-64 and
 * aarch64 Linux.  cc -O2 -shared -fPIC -o sigprof.so sigprof.c
 */
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define DEPTH 48
#define MAX_SAMPLES (1u << 16)

static uintptr_t samples[MAX_SAMPLES][DEPTH]; /* zero-terminated rows */
static volatile unsigned n_samples, n_dropped;
static uintptr_t stack_lo, stack_hi;

static void on_sigprof(int sig, siginfo_t *info, void *uc_) {
    (void)sig, (void)info;
    ucontext_t *uc = uc_;
#if defined(__x86_64__)
    uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
#elif defined(__aarch64__)
    uintptr_t pc = uc->uc_mcontext.pc;
    uintptr_t fp = uc->uc_mcontext.regs[29];
    uintptr_t sp = uc->uc_mcontext.sp;
#else
#error "sigprof: x86-64 and aarch64 only"
#endif
    if (n_samples >= MAX_SAMPLES) {
        n_dropped++;
        return;
    }
    uintptr_t *row = samples[n_samples];
    int d = 0;
    row[d++] = pc;
    /* A frame is [saved fp, return address]; each must lie above the last
     * and inside the stack, or the walk stops. */
    uintptr_t floor = sp >= stack_lo && sp < stack_hi ? sp : UINTPTR_MAX;
    while (d < DEPTH - 1 && fp >= floor && fp % 8 == 0 && fp + 16 <= stack_hi) {
        uintptr_t ret = ((uintptr_t *)fp)[1];
        if (ret == 0)
            break;
        row[d++] = ret;
        floor = fp + 16;
        fp = ((uintptr_t *)fp)[0];
    }
    row[d] = 0;
    n_samples++;
}

static void set_rate(long hz) {
    struct itimerval it = {{0, 0}, {0, 0}};
    if (hz > 1) /* tv_usec must stay under a second; 0 and 1 switch the timer off */
        it.it_interval.tv_usec = it.it_value.tv_usec = 1000000 / hz;
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void start(void) {
    pthread_attr_t attr;
    void *lo;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
        if (pthread_attr_getstack(&attr, &lo, &size) == 0) {
            stack_lo = (uintptr_t)lo;
            stack_hi = stack_lo + size;
        }
        pthread_attr_destroy(&attr);
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    const char *hz = getenv("SIGPROF_HZ");
    set_rate(hz ? atol(hz) : 997);
}

__attribute__((destructor)) static void dump(void) {
    set_rate(0);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    for (unsigned i = 0; i < n_samples; i++) {
        fputc('S', out);
        for (int d = 0; d < DEPTH && samples[i][d]; d++)
            fprintf(out, " %lx", (unsigned long)samples[i][d]);
        fputc('\n', out);
    }
    fprintf(out, "D %u\n", n_dropped);
    fclose(maps);
    fclose(out);
}
