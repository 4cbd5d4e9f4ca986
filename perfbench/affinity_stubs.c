/* CPU affinity for the load generator, which shares a small host with
   the daemon it drives.  The generator busy-polls while it waits, so it
   must not share a CPU with the daemon (a poller on the daemon's CPU would
   steal its time slices).  The generator pins itself to one allowed CPU
   and spawns the daemon pinned to another. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>
#ifdef __linux__
#include <sched.h>
#endif

/* The CPUs this thread may run on. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(arr);
#ifdef __linux__
  cpu_set_t set;
  int cpus[CPU_SETSIZE];
  int n = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; c++)
      if (CPU_ISSET(c, &set)) cpus[n++] = c;
  if (n == 0) CAMLreturn(Atom(0));
  arr = caml_alloc_tuple(n);
  for (int i = 0; i < n; i++) Store_field(arr, i, Val_int(cpus[i]));
#else
  arr = Atom(0);
#endif
  CAMLreturn(arr);
}

/* Restrict this thread (and the processes it spawns from now on) to the
   given CPUs. */
value perfbench_set_affinity(value cpus)
{
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++)
    CPU_SET(Int_val(Field(cpus, i)), &set);
  return Val_bool(sched_setaffinity(0, sizeof(set), &set) == 0);
#else
  (void)cpus;
  return Val_false;
#endif
}
