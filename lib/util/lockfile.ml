type t = { path : string; mutable released : bool }

(* A zombie has exited but is not yet reaped, so [kill pid 0] still
   succeeds on it although it can never release a lock.  Linux reports
   the process state in /proc/<pid>/stat, as the field after the
   parenthesised command name (which may itself contain ')').  Where
   /proc cannot be read the answer is "not a zombie", the conservative
   side. *)
let zombie pid =
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | stat -> stat.[String.rindex stat ')' + 2] = 'Z'
  | exception (Sys_error _ | Not_found | Invalid_argument _) -> false

let pid_alive pid =
  pid > 0
  && (match Unix.kill pid 0 with
     | () -> true
     | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
     (* EPERM: the pid exists but is owned by someone else — alive.  Any
        other failure is read conservatively as alive, so we never break
        a lock we cannot prove stale. *)
     | exception Unix.Unix_error _ -> true)
  && not (zombie pid)

let read_pid path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let contents =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> try really_input_string ic (min 64 (in_channel_length ic)) with _ -> "")
      in
      int_of_string_opt (String.trim contents)

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let rec acquire_attempts path attempts =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> write_all fd (string_of_int (Unix.getpid ()) ^ "\n"));
      Ok { path; released = false }
  | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
      if attempts <= 0 then
        Error (Printf.sprintf "lock %s: still contended after repeated stale-lock breaks" path)
      else begin
        match read_pid path with
        | Some pid when pid_alive pid ->
            Error
              (Printf.sprintf
                 "lock %s is held by live process %d; a second writer would corrupt the \
                  resource (remove the lock file only if that process is not a real owner)"
                 path pid)
        | _ ->
            (* Dead owner, or a corpse with no pid written: break it and
               retry the atomic create.  A concurrent breaker may win the
               recreate race, in which case the next round reads a live
               pid and reports it. *)
            (try Unix.unlink path with Unix.Unix_error _ -> ());
            acquire_attempts path (attempts - 1)
      end
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "lock %s: %s" path (Unix.error_message e))

let acquire path = acquire_attempts path 5

let release t =
  if not t.released then begin
    t.released <- true;
    try Unix.unlink t.path with Unix.Unix_error _ | Sys_error _ -> ()
  end

let path t = t.path
