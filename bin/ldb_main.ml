(** The ldb command line: compile a C program for a simulated target and
    debug it.  By default the program starts under the nub and the REPL
    reads commands on stdin; [-core FILE] examines a core dump post
    mortem instead; [-listen SOCKET] serves the wire protocol, one
    session per connection; [-connect SOCKET] is a client of such a
    daemon.  Every front end speaks the one command language of
    {!Ldb_ldb.Command}, where the commands are listed, and every server
    command reaches {!Server.exec}: the REPL is a single-session,
    in-process client of a {!Server}. *)

open Ldb_ldb

let opened = function
  | Ok id -> id
  | Error r ->
      Printf.eprintf "ldb: %s\n" (Server.refusal_to_string r);
      exit 1

(* --- the REPL ------------------------------------------------------------------ *)

let run_session ~arch ~sources =
  let sv, esess = Repl.server ~arch in
  let p = Host.launch ~arch sources in
  let live =
    opened (Server.open_session sv ~name:"cli" ~loader_ps:p.Host.hp_loader_ps (Host.open_channel p))
  in
  Printf.printf "ldb: target %s, %d bytes of code, stopped before main\n%!"
    (Ldb_machine.Arch.name arch)
    (String.length p.Host.hp_image.Ldb_link.Link.i_code);
  Repl.repl sv ~esess ~live ~proc:(Some p)

(** Post-mortem: rebuild the symbol tables from the same sources and open
    the dump as a read-only session.  The architecture comes from the
    dump itself; [-a] is ignored when it disagrees. *)
let run_core_session ~core_path ~sources =
  let raw = In_channel.with_open_bin core_path In_channel.input_all in
  match Ldb_machine.Core.of_string raw with
  | Error m ->
      Printf.eprintf "ldb: %s is not a usable core: %s\n" core_path m;
      exit 1
  | Ok ((core, warnings) as loaded) ->
      let arch = core.Ldb_machine.Core.co_arch in
      let _, loader_ps = Ldb_link.Driver.build ~arch sources in
      let sv, esess = Repl.server ~arch in
      let live =
        opened (Server.open_core_session sv ~name:(Filename.basename core_path) ~loader_ps loaded)
      in
      Printf.printf "ldb: post-mortem on %s (%s), fault %s (code %#x)\n%!" core_path
        (Ldb_machine.Arch.name arch)
        (match Ldb_machine.Signal.of_number core.Ldb_machine.Core.co_signal with
        | Some s -> Ldb_machine.Signal.name s
        | None -> Printf.sprintf "signal %d" core.Ldb_machine.Core.co_signal)
        core.Ldb_machine.Core.co_code;
      List.iter
        (fun w -> Printf.printf "  ! salvage: %s\n" (Ldb_machine.Core.salvage_to_string w))
        warnings;
      Repl.repl sv ~esess ~live ~proc:None

(* --- the wire daemon and its client ------------------------------------------ *)

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
  let sv, _ = Repl.server ~arch in
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

(** [-connect PATH]: a wire client.  Lines on stdin are parsed by
    {!Command.parse}; a server command becomes one request, and every
    server message is printed as one line.  A REPL command is refused
    here and sends nothing. *)
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
  let finished = ref false in
  let gone () =
    prerr_endline "ldb: server closed the connection";
    finished := true;
    None
  in
  (* one request, one reply; the server would discard a frame over its
     limit as a lying header and desynchronize the transcript, so such a
     command is refused here and nothing is sent *)
  let roundtrip cmd =
    let payload = Swire.encode_client (Swire.C_cmd cmd) in
    let limit = Swire.from_client.max_payload in
    if String.length payload > limit then begin
      Printf.printf "client: command not sent: %d bytes, over the %d-byte limit\n"
        (String.length payload) limit;
      None
    end
    else if not (send_payload payload) then gone ()
    else
      match recv_msg () with
      | None -> gone ()
      | Some m ->
          say m;
          Some m
  in
  while not !finished do
    match Option.map Command.parse (In_channel.input_line stdin) with
    | None | Some (Ok Command.Quit) ->
        finished := true;
        if send Swire.C_bye then Option.iter say (recv_msg ())
    | Some (Error Command.Blank) -> ()
    | Some (Error e) -> Printf.printf "client: %s\n" (Command.error_to_string e)
    | Some (Ok (Command.Server c)) -> ignore (roundtrip c)
    | Some (Ok (Command.Break_if { at; cond })) -> (
        match roundtrip at with
        | Some (Swire.S_reply r) ->
            List.iter
              (fun addr -> ignore (roundtrip (Server.Condition { addr; cond })))
              (Server.planted r)
        | _ -> ())
    | Some (Ok c) ->
        Printf.printf "client: %s\n"
          (Command.error_to_string (Command.Not_on_wire (Command.to_string c)))
  done;
  try Unix.close fd with _ -> ()

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

let listen_t =
  Arg.(value & opt (some string) None
       & info [ "listen" ] ~docv:"SOCKET"
           ~doc:"Run as a wire daemon on a Unix-domain socket: every connection \
                 speaking the framed LDBSRV1 protocol gets its own supervised \
                 session of the program. SIGTERM drains gracefully.")

let connect_t =
  Arg.(value & opt (some string) None
       & info [ "connect" ] ~docv:"SOCKET"
           ~doc:"Connect to a $(b,--listen) daemon as a wire client: the REPL's \
                 server commands on stdin, one reply line per request.")

let files_t =
  (* not non_empty: -connect needs no sources (the daemon has them) *)
  Arg.(value & pos_all file [] & info [] ~docv:"FILE.c" ~doc:"C source files to debug.")

let main arch core listen connect files =
  match connect with
  | Some path -> run_connect ~path
  | None -> (
      if files = [] then begin
        Printf.eprintf "ldb: no source files (required unless -connect)\n";
        exit 1
      end;
      let read f = (Filename.basename f, In_channel.with_open_text f In_channel.input_all) in
      let sources = List.map read files in
      try
        match (core, listen) with
        | Some core_path, _ -> run_core_session ~core_path ~sources
        | None, Some path -> run_listen ~arch ~sources ~path
        | None, None -> run_session ~arch ~sources
      with
      | Ldb_cc.Compile.Error m -> Printf.eprintf "ldb: %s\n" m; exit 1
      | Ldb_link.Link.Error m -> Printf.eprintf "ldb: %s\n" m; exit 1)

let cmd =
  let doc = "a retargetable source-level debugger for simulated targets" in
  Cmd.v (Cmd.info "ldb" ~doc)
    Term.(const main $ arch_t $ core_t $ listen_t $ connect_t $ files_t)

let () =
  (* accept the traditional single-dash spellings: ldb -core FILE,
     -listen SOCK, -connect SOCK *)
  let argv =
    Array.map
      (function
        | "-core" -> "--core"
        | "-listen" -> "--listen"
        | "-connect" -> "--connect"
        | a -> a)
      Sys.argv
  in
  exit (Cmd.eval ~argv cmd)
