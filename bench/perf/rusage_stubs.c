/* wait4(2) for the perf harness: a child's exit status together with
   its own resource usage (CPU time, peak RSS), which Unix.waitpid does
   not return and getrusage(RUSAGE_CHILDREN) only gives cumulatively. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* perf_wait4 pid = (code, user_s, sys_s, maxrss_kb); code is the exit
   status, or 128 + the signal number for a child killed by a signal. */
CAMLprim value perf_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal3(res, user, sys);
  struct rusage ru;
  int status;
  pid_t r;

  caml_enter_blocking_section();
  do
    r = wait4(Int_val(vpid), &status, 0, &ru);
  while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");

  user = caml_copy_double(ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6);
  sys = caml_copy_double(ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6);
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status)));
  Store_field(res, 1, user);
  Store_field(res, 2, sys);
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
