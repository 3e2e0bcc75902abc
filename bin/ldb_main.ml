(** The ldb command line: compile a C program for a simulated target,
    start it under the nub, and debug it interactively — or, with
    [-core FILE], examine a core dump post-mortem.

    Commands:
      break <func> | break :<line>   plant a breakpoint (at no-ops only)
      break <spec> if <expr>         conditional: the condition is compiled to
                                     bytecode, verified, and shipped to the nub
      info breaks                    list breakpoints; conditions show their
                                     evaluation site and suppressed-trap count
      clear                          remove all breakpoints
      run / continue (c)             resume execution
      step (s) / stepi (si)          source-level / instruction-level step
      where / bt                     current stop / backtrace
      print (p) <name>               print a variable via its PostScript printer
      eval (e) <expr>                evaluate a C expression (expression server)
      set <name> = <int>             assign to a scalar variable
      regs                           dump general-purpose registers
      disas [addr]                   disassemble at addr (default: pc)
      arch                           show target architecture
      core <file>                    write a core dump of the stopped target
      report                         one-shot crash report (best-effort)
      record [spacing]               start recording for time travel; the nub
                                     logs every state change and checkpoints
                                     every [spacing] instructions (default 64)
      rstep (rsi)                    step one instruction backwards
      rcontinue (rc)                 run backwards to the previous stop
      rwatch <name>                  run back to the last write of a variable
      present                        return from history to the live process
      detach / kill / quit           connection control

    The reverse commands replay the recording from the nearest
    checkpoint; every inspection command (where, bt, print, disas,
    regs, eval) works unchanged at any historical instant.  Commands
    that change state — continue, step, set, break — return the session
    to the present first. *)

open Ldb_ldb

let read_file path = In_channel.with_open_text path In_channel.input_all

(** The interactive loop, shared by live and post-mortem sessions.
    [proc] is the simulated process when there is one (live sessions);
    post-mortem sessions have only the dump. *)
let repl d tg0 sess ~(proc : Host.process option) =
  let finished = ref false in
  (* [cur] is what inspection commands look at: the live target, or a
     historical one materialized by the replay session *)
  let cur = ref tg0 in
  let replay : Replay.t option ref = ref None in
  (* the image is needed to open a replay session over a fetched trace *)
  let image =
    match proc with
    | Some p -> Some (Ldb.load_image d ~loader_ps:p.Host.hp_loader_ps)
    | None -> None
  in
  let to_present ~quiet =
    match !replay with
    | None -> ()
    | Some rp ->
        (match Replay.target rp with Some t -> Ldb.remove_target d t | None -> ());
        replay := None;
        cur := tg0;
        if not quiet then print_endline "(back in the present)"
  in
  (* open (or reuse) a replay session over the live target's recording;
     a fresh fetch each time it is opened picks up everything recorded
     since the last trip into history *)
  let ensure_replay () =
    match !replay with
    | Some rp -> Ok rp
    | None -> (
        match image with
        | None -> Error "time travel needs a live recorded process"
        | Some image -> (
            let bytes = Ldb.trace_bytes tg0 in
            match Replay.of_string d ~name:"replay" ~image bytes with
            | Ok (rp, warns) ->
                List.iter
                  (fun w ->
                    Printf.printf "  ! salvage: %s\n"
                      (Ldb_nub.Trace.salvage_to_string w))
                  warns;
                replay := Some rp;
                Ok rp
            | Error e -> Error (Replay.error_to_string e)))
  in
  let reverse motion =
    match ensure_replay () with
    | Error m -> Printf.printf "ldb: %s\n" m
    | Ok rp -> (
        match motion rp with
        | Ok t ->
            cur := t;
            Printf.printf "[%s]\n" (Replay.describe rp);
            print_endline (Ldb.where d t)
        | Error `End_of_history ->
            Printf.printf "ldb: %s\n" (Replay.error_to_string `End_of_history)
        | Error e -> Printf.printf "ldb: %s\n" (Replay.error_to_string e))
  in
  (* post-mortem queries may have tolerated damaged bytes; surface the
     per-query warnings the way the answer itself was printed *)
  let flush_salvage () =
    List.iter (fun w -> Printf.printf "  ! salvage: %s\n" w) (Ldb.take_salvage !cur)
  in
  let dead m = Printf.printf "ldb: %s\n" m in
  while not !finished do
    Printf.printf "(ldb) %!";
    match In_channel.input_line stdin with
    | None -> finished := true
    | Some line ->
        (let words =
           String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")
         in
         (* state-changing commands act on the live process: leave
            history before dispatching them *)
         (match words with
         | ("run" | "continue" | "c" | "step" | "s" | "stepi" | "si" | "set"
           | "break" | "b" | "clear" | "kill" | "detach" | "record")
           :: _ ->
             to_present ~quiet:false
         | _ -> ());
         try
           let tg = !cur in
           match words with
           | [] -> ()
           | [ "quit" ] | [ "q" ] -> finished := true
           | [ "arch" ] -> print_endline (Ldb_machine.Arch.name tg.Ldb.tg_arch)
           | [ "break"; spec ] | [ "b"; spec ] ->
               if String.length spec > 0 && spec.[0] = ':' then begin
                 let line = int_of_string (String.sub spec 1 (String.length spec - 1)) in
                 let addrs = Ldb.break_line d tg ~line in
                 List.iter (Printf.printf "breakpoint at %#x\n") addrs
               end
               else Printf.printf "breakpoint at %#x\n" (Ldb.break_function d tg spec)
           | "break" :: spec :: "if" :: (_ :: _ as rest)
           | "b" :: spec :: "if" :: (_ :: _ as rest) ->
               let expr = String.concat " " rest in
               let addrs =
                 if String.length spec > 0 && spec.[0] = ':' then
                   let line = int_of_string (String.sub spec 1 (String.length spec - 1)) in
                   Ldb.break_line d tg ~line
                 else [ Ldb.break_function d tg spec ]
               in
               List.iter
                 (fun addr ->
                   match Ldb_exprserver.Eval.compile_condition d tg sess ~addr expr with
                   | Ok prog -> (
                       match Ldb.set_condition d tg ~addr ~text:expr prog with
                       | Ok `Nub ->
                           Printf.printf "breakpoint at %#x if %s (condition runs on the nub)\n"
                             addr expr
                       | Ok `Debugger ->
                           Printf.printf
                             "breakpoint at %#x if %s (condition runs in the debugger)\n" addr
                             expr
                       | Error (`Unverified fs) ->
                           Printf.printf "ldb: condition rejected by the verifier:\n";
                           List.iter
                             (fun f ->
                               Printf.printf "  %s\n" (Ldb_nub.Bpverify.finding_to_string f))
                             fs)
                   | Error (`Unverified fs) ->
                       Printf.printf "ldb: condition rejected by the verifier:\n";
                       List.iter
                         (fun f ->
                           Printf.printf "  %s\n" (Ldb_nub.Bpverify.finding_to_string f))
                         fs
                   | Error (`Unsupported m) ->
                       Printf.printf "ldb: condition cannot compile to nub bytecode: %s\n" m
                   | Error (`Error m) -> Printf.printf "ldb: %s\n" m)
                 addrs
           | [ "info" ] | [ "info"; "breaks" ] ->
               Hashtbl.iter
                 (fun addr (bp : Breakpoint.t) ->
                   match bp.Breakpoint.bp_cond with
                   | Some c ->
                       Printf.printf
                         "breakpoint at %#x if %s (%s side, %d trap%s silently resumed)\n"
                         addr c.Breakpoint.c_text
                         (match c.Breakpoint.c_site with
                         | `Nub -> "nub"
                         | `Debugger -> "debugger")
                         c.Breakpoint.c_suppressed
                         (if c.Breakpoint.c_suppressed = 1 then "" else "s")
                   | None -> Printf.printf "breakpoint at %#x\n" addr)
                 tg.Ldb.tg_breaks
           | [ "clear" ] -> Breakpoint.remove_all tg.Ldb.tg_breaks tg.Ldb.tg_wire
           | [ "run" ] | [ "continue" ] | [ "c" ] -> (
               match Ldb.continue_ d tg with
               | Ok (Ldb.Exited n) ->
                   Printf.printf "program exited with status %d\n" n;
                   (match proc with
                   | Some p ->
                       let out = Ldb_machine.Proc.output p.Host.hp_proc in
                       if out <> "" then Printf.printf "--- program output ---\n%s" out
                   | None -> ())
               | Ok _ -> print_endline (Ldb.where d tg)
               | Error (`Dead_process m) -> dead m)
           | [ "step" ] | [ "s" ] -> (
               match Ldb.step_source d tg with
               | Ok (Ldb.Exited n) -> Printf.printf "program exited with status %d\n" n
               | Ok _ -> print_endline (Ldb.where d tg)
               | Error (`Dead_process m) -> dead m)
           | [ "stepi" ] | [ "si" ] -> (
               match Ldb.step_instruction d tg with
               | Ok (Ldb.Exited n) -> Printf.printf "program exited with status %d\n" n
               | Ok _ -> print_endline (Ldb.where d tg)
               | Error (`Dead_process m) -> dead m)
           | [ "disas" ] | [ "disas"; _ ] -> (
               let addr =
                 match words with
                 | [ _; spec ] -> int_of_string spec
                 | _ -> (Ldb.top_frame d tg).Frame.fr_pc
               in
               print_endline (Disas.to_string (Ldb.disassemble d tg ~addr ~count:8)))
           | [ "where" ] -> print_endline (Ldb.where d tg)
           | [ "bt" ] | [ "backtrace" ] ->
               List.iteri
                 (fun i fr ->
                   Printf.printf "#%d %s (pc=%#x base=%#x)\n" i (Ldb.frame_function d tg fr)
                     fr.Frame.fr_pc fr.Frame.fr_base)
                 (Ldb.backtrace d tg)
           | [ "print"; name ] | [ "p"; name ] ->
               Printf.printf "%s = %s\n" name (Ldb.print_value d tg (Ldb.top_frame d tg) name)
           | "eval" :: rest | "e" :: rest ->
               let expr = String.concat " " rest in
               let v, ty =
                 Ldb_exprserver.Eval.evaluate d tg (Ldb.top_frame d tg) sess expr
               in
               Printf.printf "(%s) %s\n" ty v
           | [ "set"; name; "="; v ] -> (
               match Ldb.assign_int d tg (Ldb.top_frame d tg) name (int_of_string v) with
               | Ok () -> ()
               | Error (`Dead_process m) -> dead m)
           | [ "regs" ] ->
               let fr = Ldb.top_frame d tg in
               let t = tg.Ldb.tg_tdesc in
               for r = 0 to Ldb_machine.Target.nregs t - 1 do
                 Printf.printf "%4s=%08x%s"
                   (Ldb_machine.Target.reg_name t r)
                   (Frame.fetch_reg fr r)
                   (if r mod 4 = 3 then "\n" else " ")
               done
           | [ "core"; path ] ->
               let bytes = Ldb.core_bytes tg in
               Out_channel.with_open_bin path (fun oc ->
                   Out_channel.output_string oc bytes);
               Printf.printf "wrote %d-byte core to %s\n" (String.length bytes) path
           | [ "report" ] -> (
               match Ldb.crash_report d tg with
               | `Full r -> print_string (Ldb.render_crash_report r)
               | `Salvage r ->
                   print_string (Ldb.render_crash_report r);
                   print_endline "(report assembled in salvage mode)")
           | [ "record" ] | [ "record"; _ ] ->
               let spacing = match words with [ _; s ] -> int_of_string s | _ -> 64 in
               Ldb.start_record tg ~spacing;
               Printf.printf "recording (checkpoint every %d instructions)\n" spacing
           | [ "rstep" ] | [ "rsi" ] -> reverse Replay.rstep
           | [ "rcontinue" ] | [ "rc" ] -> reverse Replay.rcontinue
           | [ "rwatch"; name ] -> (
               match Ldb.variable_range d tg (Ldb.top_frame d tg) name with
               | Error m -> Printf.printf "ldb: %s\n" m
               | Ok (_space, addr, size) ->
                   Printf.printf "running back to the last write of %s (%d byte%s at %#x)\n"
                     name size
                     (if size = 1 then "" else "s")
                     addr;
                   reverse (fun rp ->
                       Result.map fst (Replay.run_back_to_write rp ~addr ~size)))
           | [ "present" ] ->
               to_present ~quiet:true;
               print_endline (Ldb.where d !cur)
           | [ "detach" ] -> Ldb.detach tg
           | [ "kill" ] ->
               Ldb.kill tg;
               finished := true
           | _ -> Printf.printf "unknown command: %s\n" line
         with
         | Failure _ ->
             (* e.g. int_of_string on `break :abc` — complain, don't die *)
             Printf.printf "ldb: bad number in command: %s\n" line
         | Ldb.Error m -> Printf.printf "ldb: %s\n" m
         | Coredump.Dead_process m -> Printf.printf "ldb: %s\n" m
         | Transport.Error (_, m) -> Printf.printf "ldb: %s\n" m
         | Breakpoint.Error m -> Printf.printf "ldb: %s\n" m
         | Ldb_exprserver.Eval.Error m -> Printf.printf "ldb: %s\n" m
         | Ldb_exprserver.Exprserver.Error m -> Printf.printf "ldb: %s\n" m);
        flush_salvage ()
  done

let run_session ~arch ~sources =
  let d = Ldb.create () in
  let proc, tg = Host.spawn d ~arch ~name:"cli" sources in
  let sess = Ldb_exprserver.Eval.start ~arch in
  Printf.printf "ldb: target %s, %d bytes of code, stopped before main\n%!"
    (Ldb_machine.Arch.name arch)
    (String.length proc.Host.hp_image.Ldb_link.Link.i_code);
  repl d tg sess ~proc:(Some proc)

(** Server demo: [n] sessions of one program through a single supervised
    server, sharing the image cache.  Each session stops in main and
    reports its frame; the session table and cache stats follow. *)
let run_server_demo ~arch ~sources ~n =
  let image = Host.build_image ~arch sources in
  let sv = Server.create ~limits:{ Server.default_limits with Server.li_max_sessions = n } () in
  (* the expression server lives a library above lib/ldb, so the
     condition compiler is injected here, where both are in scope *)
  let esess = Ldb_exprserver.Eval.start ~arch in
  Server.set_cond_compiler sv (fun d tg ~addr cond ->
      Ldb_exprserver.Eval.compile_condition d tg esess ~addr cond);
  let ids =
    List.init n (fun i ->
        let p = Host.launch_image image in
        match
          Server.open_session sv
            ~name:(Printf.sprintf "session-%d" i)
            ~loader_ps:p.Host.hp_loader_ps (Host.open_channel p)
        with
        | Ok id -> id
        | Error r ->
            Printf.eprintf "ldb: open refused: %s\n" (Server.refusal_to_string r);
            exit 1)
  in
  List.iter
    (fun id ->
      let run cmd =
        match Server.exec sv id cmd with
        | Ok r -> Server.reply_to_string r
        | Error r -> Server.refusal_to_string r
      in
      ignore (run (Server.Break_function "main") : string);
      ignore (run Server.Continue : string);
      Printf.printf "session %d: %s\n" id (run Server.Where))
    ids;
  print_newline ();
  print_string (Server.render_sessions sv);
  let st = Server.stats sv in
  Printf.printf
    "opened %d, image cache %d hit%s / %d load%s, downs %d, failed %d\n"
    st.Server.sv_opened st.Server.sv_cache_hits
    (if st.Server.sv_cache_hits = 1 then "" else "s")
    st.Server.sv_cache_misses
    (if st.Server.sv_cache_misses = 1 then "" else "s")
    st.Server.sv_downs st.Server.sv_failed;
  List.iter (fun id -> Server.close_session ~kill:true sv id) ids

(* --- the wire daemon and its scripted client -------------------------------- *)

(** A Unix socket as an {!Evloop.io}: non-blocking reads (the loop polls),
    buffered non-blocking writes, EOF and errors folding into [io_alive].

    The writer must never block the single-threaded daemon loop: a client
    that sends commands without ever reading its socket fills the kernel
    buffer, and a write that waited for it would wedge every other
    connection.  Outbound bytes the socket will not take are buffered
    here instead, flushed opportunistically on every write and on every
    per-tick read; a peer whose buffer grows past [max_pending] or whose
    flush makes no progress for [write_deadline] seconds is declared dead
    — the loop then releases that one connection via [io_alive]. *)
let io_of_fd ~(label : string) (fd : Unix.file_descr) : Evloop.io =
  Unix.set_nonblock fd;
  let alive = ref true in
  let buf = Bytes.create 4096 in
  let pending = Buffer.create 256 in
  let max_pending = 1 lsl 18 in
  let write_deadline = 10.0 in
  let stalled_since = ref None in
  let kill () =
    alive := false;
    Buffer.clear pending
  in
  let flush () =
    if !alive && Buffer.length pending > 0 then begin
      let b = Buffer.to_bytes pending in
      let len = Bytes.length b in
      let pos = ref 0 in
      let blocked = ref false in
      while !alive && (not !blocked) && !pos < len do
        match Unix.write fd b !pos (len - !pos) with
        | 0 -> blocked := true
        | n -> pos := !pos + n
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            blocked := true
        | exception Unix.Unix_error (_, _, _) -> kill ()
      done;
      if !alive then
        if !pos >= len then begin
          Buffer.clear pending;
          stalled_since := None
        end
        else begin
          Buffer.clear pending;
          Buffer.add_subbytes pending b !pos (len - !pos);
          if !pos > 0 then stalled_since := None;
          match !stalled_since with
          | None -> stalled_since := Some (Unix.gettimeofday ())
          | Some t0 ->
              if Unix.gettimeofday () -. t0 > write_deadline then kill ()
        end
    end
  in
  {
    Evloop.io_label = label;
    io_read =
      (fun () ->
        (* the loop reads every tick: piggyback the outbound flush *)
        flush ();
        if not !alive then ""
        else
          let rec drain acc =
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 ->
                alive := false;
                acc
            | n ->
                let acc = acc ^ Bytes.sub_string buf 0 n in
                if n = Bytes.length buf then drain acc else acc
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> acc
            | exception Unix.Unix_error (_, _, _) ->
                alive := false;
                acc
          in
          drain "");
    io_write =
      (fun s ->
        if !alive then
          if Buffer.length pending + String.length s > max_pending then kill ()
          else begin
            Buffer.add_string pending s;
            flush ()
          end);
    io_alive = (fun () -> !alive);
    io_close =
      (fun () ->
        if !alive then begin
          (* a last best-effort flush so goodbyes tend to arrive *)
          flush ();
          alive := false
        end;
        try Unix.close fd with _ -> ());
  }

(** [-listen PATH]: serve the wire protocol on a Unix-domain socket.  One
    image is built up front; every accepted connection that completes the
    hello gets a fresh process of it as its own supervised session.
    SIGTERM/SIGINT trigger the graceful drain. *)
let run_listen ~arch ~sources ~path =
  let image = Host.build_image ~arch sources in
  let sv = Server.create () in
  let esess = Ldb_exprserver.Eval.start ~arch in
  Server.set_cond_compiler sv (fun d tg ~addr cond ->
      Ldb_exprserver.Eval.compile_condition d tg esess ~addr cond);
  (* the daemon ticks every ~10ms, so the loop's tick-denominated limits
     must be rescaled to wall-clock terms: the test-suite defaults
     (idle_timeout = 64 ticks ≈ 0.6s) would reap any client that pauses
     for under a second between commands — a human at -connect, or a
     script with any delay.  Here a torn frame gets ~3s to complete and
     a silent connection ~5 minutes before half-open reaping. *)
  let limits =
    {
      Evloop.default_limits with
      Evloop.el_read_deadline = 300;
      el_idle_timeout = 30_000;
      el_drain_deadline = 2_000;
    }
  in
  let loop =
    Evloop.create ~limits sv ~bind:(fun ~conn_id ->
        let p = Host.launch_image image in
        Server.open_session sv
          ~name:(Printf.sprintf "conn-%d" conn_id)
          ~loader_ps:p.Host.hp_loader_ps (Host.open_channel p))
  in
  (try Unix.unlink path with _ -> ());
  let lsock = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind lsock (ADDR_UNIX path);
  Unix.listen lsock 16;
  Unix.set_nonblock lsock;
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  (* a peer that disconnects with replies still buffered must be an
     EPIPE folded into [io_alive], not a SIGPIPE death of the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Printf.printf "ldb: listening on %s (%s)\n%!" path (Ldb_machine.Arch.name arch);
  while not !stop do
    (match Unix.accept lsock with
    | fd, _ -> ignore (Evloop.accept loop (io_of_fd ~label:path fd))
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ());
    Evloop.tick loop;
    (* one tick per ~10ms keeps deadlines meaningful in wall-clock terms
       without burning a core while idle *)
    try ignore (Unix.select [] [] [] 0.01)
    with Unix.Unix_error (EINTR, _, _) -> ()
  done;
  print_endline "ldb: draining";
  let rep = Evloop.drain loop in
  (try Unix.close lsock with _ -> ());
  (try Unix.unlink path with _ -> ());
  Printf.printf "ldb: drain %s: %d session%s detached, %d salvaged, %d connection%s closed\n%!"
    (if rep.Evloop.dr_completed then "complete" else "deadline expired")
    rep.Evloop.dr_detached
    (if rep.Evloop.dr_detached = 1 then "" else "s")
    rep.Evloop.dr_salvaged rep.Evloop.dr_conns_closed
    (if rep.Evloop.dr_conns_closed = 1 then "" else "s")

(** [-connect PATH]: a scripted wire client.  Lines on stdin become
    commands ([break f], [break :N], [continue], [step], [where], [bt],
    [print v], [read v], [core], [detach], [kill], [bye]); every server
    message is printed as one line.  This is the CI smoke driver, not an
    interactive debugger — the REPL stays on the in-process path. *)
let run_connect ~path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     Printf.eprintf "ldb: cannot connect to %s: %s\n" path (Unix.error_message e);
     exit 1);
  let rx = ref "" in
  let seq = ref 0 in
  (* a server that vanished mid-write must be a printable error, not a
     SIGPIPE death *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* a short write would tear the frame and desynchronize the stream:
     loop until the whole frame is out, retrying interrupts.  Returns
     [false] when the server is gone. *)
  let send_payload payload =
    let frame = Swire.seal ~seq:!seq payload in
    incr seq;
    let len = String.length frame in
    let pos = ref 0 in
    try
      while !pos < len do
        match Unix.write_substring fd frame !pos (len - !pos) with
        | n -> pos := !pos + n
        | exception Unix.Unix_error (EINTR, _, _) -> ()
      done;
      true
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "ldb: write to server failed: %s\n" (Unix.error_message e);
      false
  in
  let send m = send_payload (Swire.encode_client m) in
  let buf = Bytes.create 4096 in
  let rec recv_msg () =
    match Swire.scan ~max_payload:Swire.max_server_payload !rx with
    | Swire.S_frame { payload; used; _ } -> (
        rx := String.sub !rx used (String.length !rx - used);
        match Swire.decode_server payload with
        | Ok m -> Some m
        | Error e ->
            Printf.printf "client: %s\n" (Swire.error_to_string e);
            recv_msg ())
    | Swire.S_skip { skip; error } ->
        rx := String.sub !rx skip (String.length !rx - skip);
        Printf.printf "client: %s\n" (Swire.error_to_string error);
        recv_msg ()
    | Swire.S_need -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> None
        | n ->
            rx := !rx ^ Bytes.sub_string buf 0 n;
            recv_msg ()
        | exception Unix.Unix_error (EINTR, _, _) -> recv_msg ()
        | exception Unix.Unix_error (_, _, _) -> None)
  in
  let say m = print_endline (Swire.server_msg_to_string m) in
  if not (send (Swire.C_hello { magic = Swire.version_magic })) then exit 1;
  (match recv_msg () with
  | Some (Swire.S_hello _ as m) -> say m
  | Some m ->
      say m;
      exit 1
  | None ->
      prerr_endline "ldb: server closed the connection";
      exit 1);
  let parse words =
    match words with
    | [ "break"; spec ] when String.length spec > 0 && spec.[0] = ':' ->
        (* total: `break :abc` is an unknown command, not a crash *)
        Option.map
          (fun line -> Server.Break_line { file = None; line })
          (int_of_string_opt (String.sub spec 1 (String.length spec - 1)))
    | [ "break"; f ] -> Some (Server.Break_function f)
    | [ "continue" ] | [ "c" ] -> Some Server.Continue
    | [ "step" ] | [ "s" ] -> Some Server.Step_source
    | [ "where" ] -> Some Server.Where
    | [ "bt" ] | [ "backtrace" ] -> Some Server.Backtrace
    | [ "print"; v ] | [ "p"; v ] -> Some (Server.Print v)
    | [ "read"; v ] -> Some (Server.Read_int v)
    | [ "core" ] -> Some Server.Fetch_core
    | [ "detach" ] -> Some Server.Detach
    | [ "kill" ] -> Some Server.Kill
    | _ -> None
  in
  let finished = ref false in
  while not !finished do
    match In_channel.input_line stdin with
    | None | Some "bye" | Some "quit" ->
        finished := true;
        if send Swire.C_bye then (
          match recv_msg () with Some m -> say m | None -> ())
    | Some line -> (
        let words =
          String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")
        in
        match words with
        | [] -> ()
        | _ -> (
            match parse words with
            | None -> Printf.printf "client: unknown command %S\n" line
            | Some cmd ->
                (* the server would discard a frame over its limit as a
                   lying header and desynchronize the transcript: refuse
                   it here and send nothing *)
                let payload = Swire.encode_client (Swire.C_cmd cmd) in
                let limit = Swire.from_client.max_payload in
                if String.length payload > limit then
                  Printf.printf "client: command not sent: %d bytes, over the %d-byte limit\n"
                    (String.length payload) limit
                else if not (send_payload payload) then begin
                  prerr_endline "ldb: server closed the connection";
                  finished := true
                end
                else (
                  match recv_msg () with
                  | Some m -> say m
                  | None ->
                      prerr_endline "ldb: server closed the connection";
                      finished := true)))
  done;
  try Unix.close fd with _ -> ()

(** Post-mortem: rebuild the symbol tables from the same sources and open
    the dump as a read-only target.  The architecture comes from the dump
    itself; [-a] is ignored when it disagrees. *)
let run_core_session ~core_path ~sources =
  let raw = In_channel.with_open_bin core_path In_channel.input_all in
  match Ldb_machine.Core.of_string raw with
  | Error m ->
      Printf.eprintf "ldb: %s is not a usable core: %s\n" core_path m;
      exit 1
  | Ok (core, warnings) ->
      let arch = core.Ldb_machine.Core.co_arch in
      let _, loader_ps = Ldb_link.Driver.build ~arch sources in
      let d = Ldb.create () in
      let tg = Ldb.connect_core d ~name:(Filename.basename core_path) ~loader_ps
          (core, warnings) in
      let sess = Ldb_exprserver.Eval.start ~arch in
      Printf.printf "ldb: post-mortem on %s (%s), fault %s (code %#x)\n%!"
        core_path
        (Ldb_machine.Arch.name arch)
        (match Ldb_machine.Signal.of_number core.Ldb_machine.Core.co_signal with
        | Some s -> Ldb_machine.Signal.name s
        | None -> Printf.sprintf "signal %d" core.Ldb_machine.Core.co_signal)
        core.Ldb_machine.Core.co_code;
      List.iter
        (fun w ->
          Printf.printf "  ! salvage: %s\n" (Ldb_machine.Core.salvage_to_string w))
        warnings;
      repl d tg sess ~proc:None

open Cmdliner

let arch_arg =
  let parse s =
    match Ldb_machine.Arch.of_name s with
    | Some a -> Ok a
    | None -> Error (`Msg ("unknown architecture " ^ s))
  in
  let print ppf a = Fmt.string ppf (Ldb_machine.Arch.name a) in
  Arg.conv (parse, print)

let arch_t =
  Arg.(value & opt arch_arg Ldb_machine.Arch.Mips
       & info [ "a"; "arch" ] ~docv:"ARCH" ~doc:"Target architecture: mips, sparc, m68k, vax.")

let core_t =
  Arg.(value & opt (some file) None
       & info [ "core" ] ~docv:"CORE"
           ~doc:"Examine a core dump post-mortem instead of running the program. \
                 The source files are still required to rebuild the symbol tables.")

let serve_t =
  Arg.(value & opt (some int) None
       & info [ "serve" ] ~docv:"N"
           ~doc:"Instead of one interactive session, run $(docv) sessions of the \
                 program through one supervised debug server sharing an image \
                 cache, and print the session table and server stats.")

let listen_t =
  Arg.(value & opt (some string) None
       & info [ "listen" ] ~docv:"SOCKET"
           ~doc:"Run as a wire daemon on a Unix-domain socket: every connection \
                 speaking the framed LDBSRV1 protocol gets its own supervised \
                 session of the program. SIGTERM drains gracefully.")

let connect_t =
  Arg.(value & opt (some string) None
       & info [ "connect" ] ~docv:"SOCKET"
           ~doc:"Connect to a $(b,--listen) daemon as a scripted wire client: \
                 commands on stdin, one reply line per command.")

let files_t =
  (* not non_empty: -connect needs no sources (the daemon has them) *)
  Arg.(value & pos_all file [] & info [] ~docv:"FILE.c" ~doc:"C source files to debug.")

let main arch core serve listen connect files =
  match connect with
  | Some path -> run_connect ~path
  | None -> (
      if files = [] then begin
        Printf.eprintf "ldb: no source files (required unless -connect)\n";
        exit 1
      end;
      let sources = List.map (fun f -> (Filename.basename f, read_file f)) files in
      try
        match (core, serve, listen) with
        | Some core_path, _, _ -> run_core_session ~core_path ~sources
        | None, _, Some path -> run_listen ~arch ~sources ~path
        | None, Some n, None -> run_server_demo ~arch ~sources ~n
        | None, None, None -> run_session ~arch ~sources
      with
      | Ldb_cc.Compile.Error m -> Printf.eprintf "ldb: %s\n" m; exit 1
      | Ldb_link.Link.Error m -> Printf.eprintf "ldb: %s\n" m; exit 1)

let cmd =
  let doc = "a retargetable source-level debugger for simulated targets" in
  Cmd.v (Cmd.info "ldb" ~doc)
    Term.(const main $ arch_t $ core_t $ serve_t $ listen_t $ connect_t $ files_t)

let () =
  (* accept the traditional single-dash spellings: ldb -core FILE, -serve N,
     -listen SOCK, -connect SOCK *)
  let argv =
    Array.map
      (fun a ->
        match a with
        | "-core" -> "--core"
        | "-serve" -> "--serve"
        | "-listen" -> "--listen"
        | "-connect" -> "--connect"
        | a -> a)
      Sys.argv
  in
  exit (Cmd.eval ~argv cmd)
