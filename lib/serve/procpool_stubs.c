/* Process-control bindings for the worker pool that OCaml's Unix library
   does not expose: resource limits, the parent-death signal and closing
   every inherited descriptor. The whole point of process-isolated runners
   is that the OS enforces the caps the watchdog can only approximate.
   Applied in the worker child right after fork (and, for an exec'd
   worker, before exec: rlimits and the parent-death signal survive
   execve). */

#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <caml/memory.h>

#include <signal.h>
#include <stdio.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>
#include <sys/syscall.h>
#endif

/* Cap the worker's address space (RLIMIT_AS) at [mb] MiB: a runaway
   allocation fails with Out_of_memory (or the process dies) instead of
   taking the host down. Returns whether setrlimit succeeded. */
CAMLprim value rb_procpool_set_mem_limit_mb(value mb)
{
  CAMLparam1(mb);
  struct rlimit rl;
  rl.rlim_cur = (rlim_t)Long_val(mb) * 1024 * 1024;
  rl.rlim_max = rl.rlim_cur;
  CAMLreturn(Val_bool(setrlimit(RLIMIT_AS, &rl) == 0));
}

/* Cap the worker's CPU seconds (RLIMIT_CPU): a busy-spinning runner the
   cooperative cancel cannot reach is killed by the kernel (SIGXCPU/SIGKILL)
   even if the supervisor itself is wedged. Per job attempt — workers are
   recycled after each job, so the budget never accumulates across jobs. */
CAMLprim value rb_procpool_set_cpu_limit_s(value secs)
{
  CAMLparam1(secs);
  struct rlimit rl;
  rl.rlim_cur = (rlim_t)Long_val(secs);
  rl.rlim_max = rl.rlim_cur + 5; /* hard limit slack: SIGXCPU first, then SIGKILL */
  CAMLreturn(Val_bool(setrlimit(RLIMIT_CPU, &rl) == 0));
}

/* Deliver SIGKILL to this process when its parent dies
   (PR_SET_PDEATHSIG): a worker hung inside a case never reads its control
   channel, so without this it would outlive a SIGKILLed server. The
   caller re-checks getppid afterwards, since a parent that died before
   the prctl sends nothing. Returns whether the signal is armed (false off
   Linux). */
CAMLprim value rb_procpool_set_parent_death_kill(value unit)
{
  CAMLparam1(unit);
#ifdef __linux__
  CAMLreturn(Val_bool(prctl(PR_SET_PDEATHSIG, SIGKILL) == 0));
#else
  CAMLreturn(Val_false);
#endif
}

/* Close every descriptor from [lowfd] up: a forked worker must not hold
   the server's listening socket, client connections, other workers'
   channels or its trace file open. close_range(2) where the kernel has
   it, otherwise a loop up to the descriptor limit. */
CAMLprim value rb_procpool_close_from(value lowfd)
{
  CAMLparam1(lowfd);
  int low = Int_val(lowfd);
#if defined(__linux__) && defined(SYS_close_range)
  if (syscall(SYS_close_range, (unsigned int)low, ~0U, 0) == 0)
    CAMLreturn(Val_unit);
#endif
  {
    struct rlimit rl;
    long max = 65536;
    if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur != RLIM_INFINITY
        && (long)rl.rlim_cur < max)
      max = (long)rl.rlim_cur;
    for (long fd = low; fd < max; fd++) close((int)fd);
  }
  CAMLreturn(Val_unit);
}

/* MiB of address space this process maps now (the first field of
   /proc/self/statm), or -1 where that is unknown. */
CAMLprim value rb_procpool_mapped_mb(value unit)
{
  CAMLparam1(unit);
  long pages = -1;
  FILE *f = fopen("/proc/self/statm", "r");
  if (f != NULL) {
    if (fscanf(f, "%ld", &pages) != 1) pages = -1;
    fclose(f);
  }
  if (pages < 0) CAMLreturn(Val_long(-1));
  CAMLreturn(Val_long((long long)pages * sysconf(_SC_PAGESIZE) / (1024 * 1024)));
}
