/* fork/exec and wait4 for perfbench/spawn.ml: OCaml's Unix has no call
   that returns a child's rusage. */

#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* Start argv with its stdout in [out]. The child dies with the probe, so
   killing the probe never leaves the command running. */
value perfbench_spawn(value vargv, value vout)
{
  CAMLparam2(vargv, vout);
  mlsize_t n = Wosize_val(vargv);
  char **argv = caml_stat_alloc((n + 1) * sizeof(char *));
  for (mlsize_t i = 0; i < n; i++) argv[i] = caml_stat_strdup(String_val(Field(vargv, i)));
  argv[n] = NULL;
  char *out = caml_stat_strdup(String_val(vout));
  pid_t parent = getpid();
  pid_t pid = fork();
  if (pid == 0) {
    int fd = open(out, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || dup2(fd, 1) < 0) _exit(127);
    close(fd);
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) < 0 || getppid() != parent) _exit(127);
    execv(argv[0], argv);
    _exit(127);
  }
  for (mlsize_t i = 0; i < n; i++) caml_stat_free(argv[i]);
  caml_stat_free(argv);
  caml_stat_free(out);
  if (pid < 0) caml_failwith("fork");
  CAMLreturn(Val_int(pid));
}

/* Wait for [pid]: (exit code or 128 + signal, user s, system s, peak
   resident KiB). */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal3(res, user, sys);
  int status;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do r = wait4(Int_val(vpid), &status, 0, &ru); while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  user = caml_copy_double(ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6);
  sys = caml_copy_double(ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6);
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status)));
  Store_field(res, 1, user);
  Store_field(res, 2, sys);
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
