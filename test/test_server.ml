(** The debug server under supervision tests and a chaos soak.

    The contract: one server hosts many sessions; nothing one session's
    wire, symbol table or client does can kill the server or leak into
    another session.  Liveness is active (heartbeats escalate a silent
    peer through [Unresponsive] to [Down] with core salvage), overload is
    typed (admission and per-tick RPC budgets refuse with [Overloaded]),
    and sessions of one program share an image whose broken units are
    quarantined once for everyone.

    The soak is the acceptance criterion made executable: 64 sessions at
    a 5% fault rate with seeded random disconnects, stalls and kills,
    where every session not chosen as a victim must produce answers
    byte-identical to a fault-free single-session run, every victim must
    end in its typed terminal state, and the server survives it all.  The
    event log is written to a file so CI can keep it as an artifact. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host
module Server = Ldb_ldb.Server
module Symtab = Ldb_ldb.Symtab
module Transport = Ldb_ldb.Transport
module Chan = Ldb_nub.Chan
module Faultchan = Ldb_nub.Faultchan

let check = Alcotest.check
let fib_sources = [ ("fib.c", Testkit.fib_c) ]

let ok what = function
  | Ok r -> r
  | Error r -> Alcotest.failf "%s refused: %s" what (Server.refusal_to_string r)

(** Launch a fresh process of [image] and open a server session on it
    over a clean channel. *)
let open_on (sv : Server.t) (image : Ldb_link.Link.image * string) ~name : int * Host.process
    =
  let p = Host.launch_image image in
  let id =
    ok ("open " ^ name)
      (Server.open_session sv ~name ~loader_ps:p.Host.hp_loader_ps
         (Host.open_channel p))
  in
  (id, p)

let session_exn sv id =
  match Server.session sv id with
  | Some s -> s
  | None -> Alcotest.failf "no session %d" id

(* --- shared image cache ------------------------------------------------------ *)

let two_unit_sources =
  [
    ( "a.c",
      {|
int bfun(int x);
int afun(int n)
{
    int a;
    a = n + 1;
    return a;
}
int main(void)
{
    printf("%d\n", bfun(afun(1)));
    return 0;
}
|}
    );
    ( "b.c",
      {|
int bfun(int x)
{
    int b;
    b = x * 2;
    return b;
}
|}
    );
  ]

(** Two sessions of one program share one image: the second open is a
    cache hit, the symbol table is physically shared, and a unit forced
    by one session's query is already forced for the other. *)
let test_image_cache_shared () =
  let sv = Server.create () in
  let image = Host.build_image ~arch:Arch.Mips two_unit_sources in
  let id1, _p1 = open_on sv image ~name:"one" in
  let id2, _p2 = open_on sv image ~name:"two" in
  let st = Server.stats sv in
  check Alcotest.int "one image loaded" 1 st.Server.sv_cache_misses;
  check Alcotest.int "second open hit the cache" 1 st.Server.sv_cache_hits;
  check Alcotest.int "one cached image" 1 (Server.cached_images sv);
  let st1 = (session_exn sv id1).Server.ss_tg.Ldb.tg_symtab in
  let st2 = (session_exn sv id2).Server.ss_tg.Ldb.tg_symtab in
  Alcotest.(check bool) "symtab physically shared" true (st1 == st2);
  (* session one forces a.c; the unit is forced for session two without
     another force *)
  ignore (ok "break afun" (Server.exec sv id1 (Server.Break_function "afun")));
  check Alcotest.(list string) "a.c forced once" [ "a.c" ] (Symtab.forced_units st1);
  let saved = !Symtab.force_hook in
  let forces = ref 0 in
  Symtab.force_hook := (fun _ -> incr forces);
  Fun.protect
    ~finally:(fun () -> Symtab.force_hook := saved)
    (fun () ->
      ignore (ok "break afun again" (Server.exec sv id2 (Server.Break_function "afun")));
      check Alcotest.int "no re-force for the second session" 0 !forces)

(** The cache is keyed by the loader text, not by a per-open digest: 50
    opens of one program, each passing a fresh copy of its loader text,
    load one image and hit it 49 times, and every session's image id is
    that image's own [im_hash] (physically), so no open digests the text
    again.  Another program misses.  Open sessions and tombstones render
    the same 8-hex id, the loader text's MD5. *)
let test_image_cache_keyed_by_text () =
  let sv = Server.create () in
  let ((_, loader_ps) as image) = Host.build_image ~arch:Arch.Mips fib_sources in
  let ids =
    List.init 50 (fun i ->
        let p = Host.launch_image image in
        ok "open"
          (Server.open_session sv ~name:(Printf.sprintf "s%d" i)
             ~loader_ps:(Bytes.to_string (Bytes.of_string loader_ps))
             (Host.open_channel p)))
  in
  let st = Server.stats sv in
  check Alcotest.(pair int int) "1 miss, 49 hits" (1, 49)
    (st.Server.sv_cache_misses, st.Server.sv_cache_hits);
  check Alcotest.int "one cached image" 1 (Server.cached_images sv);
  let im = Hashtbl.find sv.Server.sv_images loader_ps in
  List.iter
    (fun id ->
      Alcotest.(check bool) "session id is the image's own digest" true
        ((session_exn sv id).Server.ss_image == im.Ldb.im_hash))
    ids;
  let other = Host.build_image ~arch:Arch.Mips two_unit_sources in
  ignore (open_on sv other ~name:"other");
  check Alcotest.(pair int int) "another program misses" (2, 2)
    (st.Server.sv_cache_misses, Server.cached_images sv);
  List.iter (Server.close_session sv) (List.filteri (fun i _ -> i mod 2 = 0) ids);
  let short = String.sub (Ldb.image_hash loader_ps) 0 8 in
  let rows =
    String.split_on_char '\n' (Server.render_sessions sv)
    |> List.map (fun r -> List.filter (( <> ) "") (String.split_on_char ' ' r))
  in
  let with_id state =
    List.length
      (List.filter
         (function [ _; _; st; "image"; h ] -> st = state && h = short | _ -> false)
         rows)
  in
  check Alcotest.(pair int int) "healthy and closed rows carry the 8-hex id" (25, 25)
    (with_id "healthy", with_id "closed")

(** The server against isolated debuggers: 16 sessions per target run
    break / continue / read / backtrace / run to exit, once through one
    server and once as one private debugger (and image) per session.
    Through the server, no session goes down and no command fails, every
    open after a target's first is an image-cache hit, each session costs
    fewer live heap words, and each unit is forced once per image rather
    than once per session. *)
let test_server_vs_isolated () =
  let per_arch = 16 in
  let n_sessions = per_arch * List.length Arch.all in
  let images () = List.map (fun arch -> Host.build_image ~arch fib_sources) Arch.all in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let forced st = List.length (Symtab.forced_units st) in
  (* through one server *)
  let images_sv = images () in
  let w0 = live_words () in
  let sv =
    Server.create ~limits:{ Server.default_limits with Server.li_max_sessions = n_sessions } ()
  in
  let ids =
    List.concat_map
      (fun image ->
        List.init per_arch (fun i ->
            let id, _ = open_on sv image ~name:(Printf.sprintf "s%d" i) in
            ignore (ok "break" (Server.exec sv id (Server.Break_function "fib")));
            ignore (ok "continue" (Server.exec sv id Server.Continue));
            (match ok "read" (Server.exec sv id (Server.Read_int "n")) with
            | Server.R_int 10 -> ()
            | r -> Alcotest.failf "read n: %s" (Server.reply_to_string r));
            ignore (ok "backtrace" (Server.exec sv id Server.Backtrace));
            ignore (ok "exit" (Server.exec sv id Server.Continue));
            id))
      images_sv
  in
  let sv_words = (live_words () - w0) / n_sessions in
  let st = Server.stats sv in
  let sv_forced =
    Hashtbl.fold (fun _ im acc -> acc + forced im.Ldb.im_symtab) sv.Server.sv_images 0
  in
  List.iter (fun id -> Server.close_session ~kill:true sv id) ids;
  (* one isolated debugger per session *)
  let images_iso = images () in
  let w0 = live_words () in
  let isolated =
    List.concat_map
      (fun image ->
        List.init per_arch (fun _ ->
            let p = Host.launch_image image in
            let d = Ldb.create () in
            let tg =
              Ldb.connect d ~name:"s" ~loader_ps:p.Host.hp_loader_ps (Host.open_channel p)
            in
            ignore (Ldb.break_function d tg "fib" : int);
            (match Testkit.ok (Ldb.continue_ d tg) with
            | Ldb.Stopped _ -> ()
            | _ -> Alcotest.fail "isolated session: no stop");
            check Alcotest.int "isolated n" 10
              (Ldb.read_int_var d tg (Ldb.top_frame d tg) "n");
            ignore (Ldb.backtrace d tg : _ list);
            (match Testkit.ok (Ldb.continue_ d tg) with
            | Ldb.Exited 0 -> ()
            | _ -> Alcotest.fail "isolated session: no clean exit");
            tg))
      images_iso
  in
  let iso_words = (live_words () - w0) / n_sessions in
  let iso_forced = List.fold_left (fun acc tg -> acc + forced tg.Ldb.tg_symtab) 0 isolated in
  List.iter Ldb.kill isolated;
  check Alcotest.int "sessions served" n_sessions (List.length ids);
  check Alcotest.int "no session down" 0 st.Server.sv_downs;
  check Alcotest.int "no command failed" 0 st.Server.sv_failed;
  check Alcotest.int "one image per target" (List.length Arch.all) st.Server.sv_cache_misses;
  check Alcotest.int "every other open hit the cache"
    (n_sessions - st.Server.sv_cache_misses)
    st.Server.sv_cache_hits;
  Alcotest.(check bool)
    (Printf.sprintf "%d live words per server session vs %d isolated" sv_words iso_words)
    true (sv_words < iso_words);
  (* fib.c is one unit: forced once per shared image, once per isolated session *)
  check Alcotest.int "units forced through the server" (List.length Arch.all) sv_forced;
  check Alcotest.int "units forced in isolated sessions" n_sessions iso_forced

(** A unit quarantined in the shared image degrades exactly the queries
    that touch it, in every session, without re-forcing — and everything
    else keeps working. *)
let test_quarantine_shared () =
  let sv = Server.create () in
  let image = Host.build_image ~arch:Arch.Mips two_unit_sources in
  let id1, _p1 = open_on sv image ~name:"one" in
  let id2, _p2 = open_on sv image ~name:"two" in
  let st = (session_exn sv id1).Server.ss_tg.Ldb.tg_symtab in
  (* poison b.c as a failed force would *)
  Hashtbl.replace st.Symtab.quarantined "b.c" "poisoned by test";
  let saved = !Symtab.force_hook in
  let forced = ref [] in
  Symtab.force_hook := (fun f -> forced := f :: !forced);
  Fun.protect
    ~finally:(fun () -> Symtab.force_hook := saved)
    (fun () ->
      (* the poisoned unit fails typed in both sessions... *)
      List.iter
        (fun id ->
          match Server.exec sv id (Server.Break_function "bfun") with
          | Error (Server.Failed _) -> ()
          | Ok r ->
              Alcotest.failf "session %d: break into a quarantined unit gave %s" id
                (Server.reply_to_string r)
          | Error r ->
              Alcotest.failf "session %d: wrong refusal %s" id
                (Server.refusal_to_string r))
        [ id1; id2 ];
      (* ... was never re-executed ... *)
      Alcotest.(check bool) "b.c never forced" true
        (not (List.mem "b.c" !forced));
      (* ... both sessions stay healthy and the rest of the table works *)
      List.iter
        (fun id ->
          (match (session_exn sv id).Server.ss_state with
          | Server.Healthy -> ()
          | s -> Alcotest.failf "session %d degraded to %s" id (Server.state_name s));
          ignore (ok "break afun" (Server.exec sv id (Server.Break_function "afun"))))
        [ id1; id2 ])

(* --- typed failure, typed refusal -------------------------------------------- *)

let test_typed_isolation () =
  let sv = Server.create () in
  let image = Host.build_image ~arch:Arch.Sparc fib_sources in
  let id, _p = open_on sv image ~name:"s" in
  (* a bad command fails typed; the session shrugs it off *)
  (match Server.exec sv id (Server.Break_function "nosuchfn") with
  | Error (Server.Failed _) -> ()
  | r ->
      Alcotest.failf "bad break: %s"
        (match r with
        | Ok r -> Server.reply_to_string r
        | Error r -> Server.refusal_to_string r));
  (match (session_exn sv id).Server.ss_state with
  | Server.Healthy -> ()
  | s -> Alcotest.failf "session degraded to %s" (Server.state_name s));
  ignore (ok "break fib" (Server.exec sv id (Server.Break_function "fib")));
  (* unknown sessions are typed, not exceptional *)
  (match Server.exec sv 999 Server.Where with
  | Error (Server.No_such_session 999) -> ()
  | _ -> Alcotest.fail "expected No_such_session");
  (* kill closes; commands after the close are typed *)
  ignore (ok "kill" (Server.exec sv id Server.Kill));
  match Server.exec sv id Server.Where with
  | Error (Server.Session_closed _) -> ()
  | _ -> Alcotest.fail "expected Session_closed"

(* --- backpressure ------------------------------------------------------------- *)

let test_backpressure () =
  (* admission control *)
  let sv =
    Server.create
      ~limits:{ Server.default_limits with Server.li_max_sessions = 1 }
      ()
  in
  let image = Host.build_image ~arch:Arch.Mips fib_sources in
  let _id, _p = open_on sv image ~name:"only" in
  let p2 = Host.launch_image image in
  (match
     Server.open_session sv ~name:"too-many" ~loader_ps:p2.Host.hp_loader_ps
       (Host.open_channel p2)
   with
  | Error (Server.Overloaded _) -> ()
  | Ok _ -> Alcotest.fail "admission over the cap succeeded"
  | Error r -> Alcotest.failf "wrong refusal: %s" (Server.refusal_to_string r));
  (* per-tick RPC budget: room for the setup, then drive reads into the cap *)
  let sv =
    Server.create
      ~limits:{ Server.default_limits with Server.li_max_rpcs_per_tick = 40 }
      ()
  in
  let id, _p = open_on sv image ~name:"budgeted" in
  ignore (ok "break" (Server.exec sv id (Server.Break_function "fib")));
  ignore (ok "continue" (Server.exec sv id Server.Continue));
  Server.tick sv;
  let rec drive n =
    if n > 50 then Alcotest.fail "budget never engaged"
    else
      match Server.exec sv id (Server.Read_int "n") with
      | Ok (Server.R_int 10) -> drive (n + 1)
      | Error (Server.Overloaded _) -> ()
      | r ->
          Alcotest.failf "unexpected: %s"
            (match r with
            | Ok r -> Server.reply_to_string r
            | Error r -> Server.refusal_to_string r)
  in
  drive 0;
  (* the next tick refills the budget; the session was never degraded *)
  Server.tick sv;
  (match ok "read after tick" (Server.exec sv id (Server.Read_int "n")) with
  | Server.R_int 10 -> ()
  | r -> Alcotest.failf "bad read: %s" (Server.reply_to_string r));
  match (session_exn sv id).Server.ss_state with
  | Server.Healthy -> ()
  | s -> Alcotest.failf "overload degraded the session to %s" (Server.state_name s)

(* --- liveness ----------------------------------------------------------------- *)

(** A peer that stops answering is walked through the state machine by
    heartbeats: Healthy, Unresponsive with backoff, Down when the miss
    budget is gone — all recorded in the event log. *)
let test_heartbeat_escalation () =
  let sv =
    Server.create
      ~limits:
        {
          Server.default_limits with
          Server.li_hb_every = 1;
          li_hb_max_misses = 3;
          li_hb_deadline = 2;
        }
      ()
  in
  let image = Host.build_image ~arch:Arch.M68k fib_sources in
  let id, _p = open_on sv image ~name:"quiet" in
  let s = session_exn sv id in
  (* the peer goes silent: the link is up but nothing moves *)
  Chan.set_pump (Transport.endpoint (Ldb.transport s.Server.ss_tg)) (fun () -> ());
  let saw_unresponsive = ref false in
  let rec drive n =
    if n > 60 then Alcotest.fail "never escalated to Down"
    else begin
      Server.tick sv;
      match s.Server.ss_state with
      | Server.Unresponsive _ ->
          saw_unresponsive := true;
          drive (n + 1)
      | Server.Down _ -> ()
      | _ -> drive (n + 1)
    end
  in
  drive 0;
  Alcotest.(check bool) "passed through Unresponsive" true !saw_unresponsive;
  (match Server.exec sv id Server.Where with
  | Error (Server.Session_down _) -> ()
  | _ -> Alcotest.fail "expected Session_down");
  let log = String.concat "\n" (List.map Server.log_entry_to_string (Server.events sv)) in
  let has_sub sub =
    let n = String.length sub and h = String.length log in
    let rec go i = i + n <= h && (String.sub log i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  Alcotest.(check bool) "log records the suspicion" true (has_sub "unresponsive");
  Alcotest.(check bool) "log records the down" true (has_sub "down:")

(** A cut link takes only its own session down, immediately and typed;
    the neighbour session answers exactly as before. *)
let test_disconnect_isolated () =
  let sv = Server.create () in
  let image = Host.build_image ~arch:Arch.Vax fib_sources in
  let ida, _pa = open_on sv image ~name:"victim" in
  let idb, _pb = open_on sv image ~name:"bystander" in
  let script id =
    (* sequential lets: a list literal would evaluate right to left *)
    let b = Server.reply_to_string (ok "break" (Server.exec sv id (Server.Break_function "fib"))) in
    let c = Server.reply_to_string (ok "continue" (Server.exec sv id Server.Continue)) in
    let r = Server.reply_to_string (ok "read" (Server.exec sv id (Server.Read_int "n"))) in
    [ b; c; r ]
  in
  let expected = script ida in
  (* the victim's link dies *)
  Chan.disconnect
    (Transport.endpoint (Ldb.transport (session_exn sv ida).Server.ss_tg));
  (match Server.exec sv ida Server.Backtrace with
  | Error (Server.Session_down _) -> ()
  | r ->
      Alcotest.failf "expected Session_down, got %s"
        (match r with
        | Ok r -> Server.reply_to_string r
        | Error r -> Server.refusal_to_string r));
  (match (session_exn sv ida).Server.ss_state with
  | Server.Down _ -> ()
  | s -> Alcotest.failf "victim in %s, not down" (Server.state_name s));
  (* the bystander's answers are byte-identical to the victim's clean run *)
  check Alcotest.(list string) "bystander unaffected" expected (script idb)

(* --- post-mortem sessions ------------------------------------------------------ *)

let segv_sources =
  [
    ( "segv.c",
      {|
int boom(int k)
{
    static int a[4];
    a[0] = 7;
    a[k] = 1;
    return a[0];
}
int main(void)
{
    int n;
    n = 4000000;
    printf("before\n");
    boom(n);
    printf("after\n");
    return 0;
}
|}
    );
  ]

(** The bounded event log never truncates silently: once the cap drops
    older entries, the log opens with a marker entry saying how many are
    gone, and the newest entries are all still there. *)
let test_log_truncation_marker () =
  let sv =
    Server.create ~limits:{ Server.default_limits with Server.li_max_log = 32 } ()
  in
  check Alcotest.int "nothing dropped yet" 0 (Server.events_dropped sv);
  for i = 1 to 100 do
    Server.log sv 1 "event %d" i
  done;
  let dropped = Server.events_dropped sv in
  check Alcotest.bool "the cap dropped something" true (dropped > 0);
  (match Server.events sv with
  | marker :: rest ->
      check Alcotest.int "the marker is the server's own entry" 0
        marker.Server.ev_session;
      let expect =
        Printf.sprintf "event log truncated: %d older entries dropped" dropped
      in
      check Alcotest.string "the marker counts the dropped entries" expect
        marker.Server.ev_line;
      (match List.rev rest with
      | newest :: _ ->
          check Alcotest.string "the newest entry survived" "event 100"
            newest.Server.ev_line
      | [] -> Alcotest.fail "no entries survived the cap");
      check Alcotest.bool "the kept entries fit the cap" true (List.length rest <= 32)
  | [] -> Alcotest.fail "empty event log");
  (* accounting: dropped + kept = everything ever logged *)
  check Alcotest.int "no entry is unaccounted for" 100
    (dropped + (List.length (Server.events sv) - 1))

(** A crashed session's core feeds a post-mortem session in the same
    server, sharing the image; commands are queries only. *)
let test_core_session () =
  let sv = Server.create () in
  let image = Host.build_image ~arch:Arch.Mips segv_sources in
  let id, p = open_on sv image ~name:"crasher" in
  (match ok "run to fault" (Server.exec sv id Server.Continue) with
  | Server.R_state (Ldb.Stopped { signal = Signal.SIGSEGV; _ }) -> ()
  | r -> Alcotest.failf "expected a SIGSEGV stop, got %s" (Server.reply_to_string r));
  let core =
    match ok "core" (Server.exec sv id Server.Fetch_core) with
    | Server.R_core co -> co
    | r -> Alcotest.failf "expected a core, got %s" (Server.reply_to_string r)
  in
  let pm =
    ok "open core session"
      (Server.open_core_session sv ~name:"post-mortem"
         ~loader_ps:p.Host.hp_loader_ps (core, []))
  in
  check Alcotest.int "image shared with the live session" 1 (Server.cached_images sv);
  (match ok "post-mortem where" (Server.exec sv pm Server.Where) with
  | Server.R_text t ->
      Alcotest.(check bool) "where names the fault" true
        (String.length t > 0 && String.sub t 0 7 = "SIGSEGV")
  | r -> Alcotest.failf "bad where: %s" (Server.reply_to_string r));
  ignore (ok "post-mortem backtrace" (Server.exec sv pm Server.Backtrace));
  (* commands are refused typed on the dead process *)
  (match Server.exec sv pm Server.Continue with
  | Error (Server.Failed _) -> ()
  | r ->
      Alcotest.failf "continue on a core gave %s"
        (match r with
        | Ok r -> Server.reply_to_string r
        | Error r -> Server.refusal_to_string r));
  (* a core over the resource cap is refused typed, not shipped *)
  let sv2 =
    Server.create
      ~limits:{ Server.default_limits with Server.li_max_core_bytes = 1024 }
      ()
  in
  let id2, _p2 = open_on sv2 image ~name:"capped" in
  ignore (ok "run to fault" (Server.exec sv2 id2 Server.Continue));
  match Server.exec sv2 id2 Server.Fetch_core with
  | Error (Server.Overloaded _) -> ()
  | r ->
      Alcotest.failf "over-cap core gave %s"
        (match r with
        | Ok r -> Server.reply_to_string r
        | Error r -> Server.refusal_to_string r)

(* a breakpoint hit three times *)
let bump_sources =
  [
    ( "bump.c",
      {|
int total;
void bump(int n)
{
    total = total + n;
}
int main(void)
{
    bump(1);
    bump(2);
    bump(3);
    return 0;
}
|} );
  ]

(** A [core] describes the stop it was taken at: at [bump]'s breakpoint,
    take a core, then [next] (a continue to the next hit, or a store to
    [n]); the core after that must equal a fresh session's at the same
    stop with the same stores, taken without the earlier core. *)
let core_is_current ~(next : [ `Continue | `Store ]) arch () =
  let sv = Server.create () in
  let image = Host.build_image ~arch bump_sources in
  let run ~early_core =
    let id, _ = open_on sv image ~name:"bump" in
    let continue () =
      match ok "continue" (Server.exec sv id Server.Continue) with
      | Server.R_state (Ldb.Stopped { signal = Signal.SIGTRAP; _ }) -> ()
      | r -> Alcotest.failf "expected the breakpoint, got %s" (Server.reply_to_string r)
    in
    let core () =
      match ok "core" (Server.exec sv id Server.Fetch_core) with
      | Server.R_core co -> Core.to_string co
      | r -> Alcotest.failf "expected a core, got %s" (Server.reply_to_string r)
    in
    ignore (ok "break" (Server.exec sv id (Server.Break_function "bump")));
    continue ();
    if early_core then ignore (core () : string);
    (match next with
    | `Continue -> continue ()
    | `Store ->
        let d = Server.debugger sv and tg = (session_exn sv id).Server.ss_tg in
        Testkit.ok_unit (Ldb.assign_int d tg (Ldb.top_frame d tg) "n" 30));
    core ()
  in
  let taken = run ~early_core:true and fresh = run ~early_core:false in
  check Alcotest.bool "the dump is the fresh session's" true (String.equal taken fresh)

(* --- the chaos soak ------------------------------------------------------------ *)

(** What the chaos schedule does to a session: nothing, cut the link
    before round [r], stall the link before round [r], or have the client
    kill it at round [r]. *)
type fate = Spared | Cut of int | Stalled of int | Killed of int

let fate_name = function
  | Spared -> "spared"
  | Cut r -> Printf.sprintf "cut@%d" r
  | Stalled r -> Printf.sprintf "stalled@%d" r
  | Killed r -> Printf.sprintf "killed@%d" r

let soak_script =
  [|
    Server.Break_function "fib";
    Server.Continue;
    Server.Read_int "n";
    Server.Print "n";
    Server.Backtrace;
    Server.Continue;
  |]

let show_result = function
  | Ok r -> "ok: " ^ Server.reply_to_string r
  | Error r -> "refused: " ^ Server.refusal_to_string r

(** The reference answers: the same script through a server with exactly
    one session on a clean link. *)
let soak_baseline ~arch : string list =
  let sv = Server.create () in
  let image = Host.build_image ~arch fib_sources in
  let id, _p = open_on sv image ~name:"baseline" in
  Array.to_list (Array.map (fun cmd -> show_result (Server.exec sv id cmd)) soak_script)

let soak_sessions () =
  match Sys.getenv_opt "LDB_SOAK_SESSIONS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 64)
  | None -> 64

let soak_log_path () =
  let dir = Option.value ~default:"." (Sys.getenv_opt "LDB_SOAK_LOG_DIR") in
  Filename.concat dir "server-soak-events.log"

let test_chaos_soak () =
  let n = soak_sessions () in
  let rate = 0.05 in
  let rng = Random.State.make [| 0xC4A05 |] in
  let arches = Array.of_list Arch.all in
  let images = Array.map (fun arch -> Host.build_image ~arch fib_sources) arches in
  let baselines = Array.map (fun arch -> Array.of_list (soak_baseline ~arch)) arches in
  let sv =
    Server.create
      ~limits:
        {
          Server.default_limits with
          Server.li_max_sessions = n;
          (* tolerate a probe eating a fault without spuriously downing a
             healthy session: 4 consecutive misses at 5% is noise-proof *)
          li_hb_max_misses = 4;
          li_hb_deadline = 8;
        }
      ()
  in
  let rounds = Array.length soak_script in
  (* one entry per session: identity, chaos schedule, observations *)
  let sessions =
    Array.init n (fun i ->
        let arch_ix = i mod Array.length arches in
        let p = Host.launch_image images.(arch_ix) in
        let prof =
          Faultchan.profile ~rate
            ~kinds:Faultchan.[ Drop; Corrupt; Truncate; Duplicate; Stall ]
            ~stall_ticks:4 ()
        in
        let chan, fc = Host.open_faulty_channel ~armed:false p ~seed:(7000 + (17 * i)) prof in
        let id =
          ok
            (Printf.sprintf "open soak session %d" i)
            (Server.open_session sv
               ~name:(Printf.sprintf "soak-%03d" i)
               ~loader_ps:p.Host.hp_loader_ps chan)
        in
        Faultchan.set_armed fc true;
        let fate =
          let roll = Random.State.float rng 1.0 in
          let round = 1 + Random.State.int rng (rounds - 1) in
          if roll < 0.12 then Cut round
          else if roll < 0.24 then Stalled round
          else if roll < 0.36 then Killed round
          else Spared
        in
        (id, arch_ix, fate, Array.make rounds ""))
  in
  (* drive all sessions round-robin, sabotaging on schedule; a tick after
     every round runs budget resets and heartbeats *)
  for round = 0 to rounds - 1 do
    Array.iter
      (fun (id, _arch_ix, fate, results) ->
        (* a killed session is closed: only its tombstone is left *)
        let endpoint () =
          Transport.endpoint (Ldb.transport (session_exn sv id).Server.ss_tg)
        in
        (match fate with
        | Cut r when r = round -> Chan.disconnect (endpoint ())
        | Stalled r when r = round -> Chan.set_pump (endpoint ()) (fun () -> ())
        | _ -> ());
        let cmd =
          match fate with Killed r when r = round -> Server.Kill | _ -> soak_script.(round)
        in
        results.(round) <- show_result (Server.exec sv id cmd))
      sessions;
    Server.tick sv
  done;
  (* let the heartbeat machinery finish escalating the stalled victims *)
  for _ = 1 to 80 do
    Server.tick sv
  done;
  (* write the flight recorder for CI *)
  let oc = open_out (soak_log_path ()) in
  List.iter
    (fun e -> output_string oc (Server.log_entry_to_string e ^ "\n"))
    (Server.events sv);
  output_string oc (Server.render_sessions sv);
  close_out oc;
  (* the verdict, session by session *)
  Array.iter
    (fun (id, arch_ix, fate, results) ->
      let who = Printf.sprintf "session %d (%s, %s)" id (Arch.name arches.(arch_ix)) (fate_name fate) in
      let baseline = baselines.(arch_ix) in
      let state =
        match Server.session_state sv id with
        | Some st -> st
        | None -> Alcotest.failf "%s: the server forgot it entirely" who
      in
      let check_prefix upto =
        for r = 0 to upto - 1 do
          check Alcotest.string
            (Printf.sprintf "%s round %d matches the clean run" who r)
            baseline.(r) results.(r)
        done
      in
      match fate with
      | Spared ->
          (* zero contamination: byte-identical to the fault-free run *)
          check_prefix rounds;
          (match state with
          | Server.Healthy | Server.Unresponsive _ -> ()
          | s ->
              Alcotest.failf "%s ended %s — a healthy session went down" who
                (Server.state_name s))
      | Killed r ->
          check_prefix r;
          check Alcotest.string (who ^ " kill acknowledged") "ok: ok" results.(r);
          (match state with
          | Server.Closed -> ()
          | s -> Alcotest.failf "%s ended %s, not closed" who (Server.state_name s))
      | Cut r | Stalled r -> (
          check_prefix r;
          match state with
          | Server.Down _ -> ()
          | s -> Alcotest.failf "%s ended %s, not down" who (Server.state_name s)))
    sessions;
  (* every down session was a victim; the count is exact *)
  let downs =
    List.length
      (List.filter
         (fun s -> match s.Server.ss_state with Server.Down _ -> true | _ -> false)
         (Server.sessions sv))
  in
  let victims =
    Array.fold_left
      (fun acc (_, _, fate, _) ->
        match fate with Cut _ | Stalled _ -> acc + 1 | _ -> acc)
      0 sessions
  in
  check Alcotest.int "every down session is a victim" victims downs;
  (* the server survived: still admitting and serving *)
  let image = images.(0) in
  let id, _p = open_on sv image ~name:"after-the-storm" in
  ignore (ok "post-storm break" (Server.exec sv id (Server.Break_function "fib")));
  match ok "post-storm continue" (Server.exec sv id Server.Continue) with
  | Server.R_state (Ldb.Stopped _) -> ()
  | r -> Alcotest.failf "post-storm stop: %s" (Server.reply_to_string r)

(* --- closed sessions are freed ---------------------------------------------------- *)

(** A closed or drained session leaves a tombstone, not its target: the
    process, nub and transport behind it become garbage, while later
    commands still get the typed [Session_closed] refusal. *)
let test_closed_session_freed () =
  let image = Host.build_image ~arch:Arch.Mips fib_sources in
  List.iter
    (fun (how, release) ->
      let sv = Server.create () in
      let proc = Weak.create 1 in
      (* everything naming the process lives and dies in this call *)
      let open_and_release () =
        let id, p = open_on sv image ~name:how in
        Weak.set proc 0 (Some p.Host.hp_proc);
        ignore (ok "break" (Server.exec sv id (Server.Break_function "fib")));
        ignore (ok "continue" (Server.exec sv id Server.Continue));
        release sv id;
        id
      in
      let id = open_and_release () in
      Gc.full_major ();
      check Alcotest.bool (how ^ ": the process was collected") false (Weak.check proc 0);
      (match Server.exec sv id Server.Where with
      | Error (Server.Session_closed id') -> check Alcotest.int (how ^ ": refusal id") id id'
      | r -> Alcotest.failf "%s: expected a closed-session refusal, got %s" how (show_result r));
      check Alcotest.(option string) (how ^ ": state reads closed") (Some "closed")
        (Option.map Server.state_name (Server.session_state sv id)))
    [ ("close", fun sv id -> Server.close_session sv id);
      ("drain", fun sv id ->
          match Server.drain_session sv id with
          | `Detached -> ()
          | _ -> Alcotest.fail "drain did not detach") ]

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "server"
    [
      ( "cache",
        [ case "image shared across sessions" test_image_cache_shared;
          case "keyed by loader text, one digest per image" test_image_cache_keyed_by_text;
          case "quarantine shared, typed, no re-force" test_quarantine_shared;
          case "server beats isolated sessions" test_server_vs_isolated ] );
      ( "isolation",
        [ case "typed failures leave the session healthy" test_typed_isolation;
          case "disconnect hits only its own session" test_disconnect_isolated ] );
      ("backpressure", [ case "admission and RPC budgets refuse typed" test_backpressure ]);
      ("liveness", [ case "heartbeats escalate to down" test_heartbeat_escalation ]);
      ("flight recorder", [ case "log truncation leaves a marker" test_log_truncation_marker ]);
      ("post-mortem", [ case "core-backed session shares the image" test_core_session ]);
      ( "core",
        List.concat_map
          (fun arch ->
            [ case ("dump after continue = fresh dump on " ^ Arch.name arch)
                (core_is_current ~next:`Continue arch);
              case ("dump after a store = fresh dump on " ^ Arch.name arch)
                (core_is_current ~next:`Store arch) ])
          Arch.all );
      ("release", [ case "closed sessions are freed" test_closed_session_freed ]);
      ("soak", [ case "chaos soak: 64 sessions, 5% faults" test_chaos_soak ]);
    ]
