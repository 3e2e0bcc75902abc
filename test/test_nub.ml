(** Tests for the nub and its little-endian protocol: pure codec
    round-trips and totality (the decoders never raise), framing with
    CRC-32 integrity and resynchronization, channel failure semantics
    (timeout vs. disconnect), byte-order handling, the SIM-MIPS
    floating-save word-swap quirk, context save/restore, and reconnection
    after a debugger "crash". *)

open Ldb_machine
module Chan = Ldb_nub.Chan
module Proto = Ldb_nub.Proto
module Frame = Ldb_nub.Frame
module Nub = Ldb_nub.Nub

let check = Alcotest.check

(* --- channels -------------------------------------------------------------- *)

let expect_frame what payload = function
  | Ok f -> check Alcotest.string what payload f.Frame.fr_payload
  | Error m -> Alcotest.failf "%s: corrupt frame: %s" what m

let test_chan_pump () =
  let a, b = Chan.pair () in
  (* b's frame arrives only when a pumps *)
  Chan.set_pump a (fun () -> Frame.send b ~seq:1 "pumped!");
  expect_frame "pump delivers" "pumped!" (Frame.recv a)

let test_chan_disconnect () =
  let a, b = Chan.pair () in
  Frame.send a ~seq:1 "x";
  Chan.disconnect a;
  (* a frame buffered before the cut is still readable *)
  expect_frame "buffered" "x" (Frame.recv b);
  match Frame.recv b with
  | exception Chan.Disconnected -> ()
  | _ -> Alcotest.fail "expected Disconnected"

(** A silent peer on a live link is a {!Chan.Timeout}; a dead link is
    {!Chan.Disconnected}.  The two demand different recoveries (retry
    vs. reattach), so they must be distinguishable. *)
let test_chan_timeout_vs_disconnect () =
  let a, _b = Chan.pair () in
  (match Frame.recv ~deadline:3 a with
  | exception Chan.Timeout -> ()
  | _ -> Alcotest.fail "expected Timeout on a silent but live link");
  check Alcotest.bool "still connected" true (Chan.is_connected a);
  Chan.disconnect a;
  match Frame.recv ~deadline:3 a with
  | exception Chan.Disconnected -> ()
  | exception Chan.Timeout -> Alcotest.fail "dead link misreported as timeout"
  | _ -> Alcotest.fail "expected Disconnected"

(** The deadline is configurable: a pump that needs several calls to
    produce output succeeds under a generous deadline and times out under
    a stingy one. *)
let test_chan_deadline () =
  let slow_pair () =
    let a, b = Chan.pair () in
    let countdown = ref 5 in
    Chan.set_pump a (fun () ->
        decr countdown;
        if !countdown = 0 then Frame.send b ~seq:1 "!");
    a
  in
  (match Frame.recv ~deadline:2 (slow_pair ()) with
  | exception Chan.Timeout -> ()
  | _ -> Alcotest.fail "deadline 2 should time out");
  expect_frame "deadline 10 succeeds" "!" (Frame.recv ~deadline:10 (slow_pair ()))

(* --- protocol codec (pure) -------------------------------------------------- *)

let roundtrip_request (r : Proto.request) =
  Proto.decode_request (Proto.encode_request r) = Ok r

let roundtrip_reply (r : Proto.reply) =
  Proto.decode_reply (Proto.encode_reply r) = Ok r

let test_request_roundtrips () =
  List.iter
    (fun r -> Alcotest.(check bool) "request" true (roundtrip_request r))
    [ Proto.Hello;
      Proto.Fetch { space = 'd'; addr = 0x123456; size = 4 };
      Proto.Fetch { space = 'c'; addr = 0; size = 10 };
      Proto.Store { space = 'd'; addr = 0xffff; bytes = "\x01\x02\x03\x04" };
      Proto.Continue; Proto.Step; Proto.Kill; Proto.Detach;
      Proto.Dump { offset = 0 }; Proto.Dump { offset = 0x12345 };
      Proto.Dump { offset = 0xffffffff };
      Proto.Fetch { space = 'd'; addr = 0x80000000; size = 4 };
      Proto.Set_cond { addr = 0x1000; prog = "P\x01\x00\x00\x00" };
      Proto.Set_cond { addr = 0; prog = String.make Proto.max_cond_prog 'q' };
      Proto.Clear_cond { addr = 0x1000 };
      Proto.Record { spacing = 1 }; Proto.Record { spacing = 100_000 };
      Proto.Fetch_trace { offset = 0 }; Proto.Fetch_trace { offset = 0xabcdef } ]

let test_reply_roundtrips () =
  List.iter
    (fun r -> Alcotest.(check bool) "reply" true (roundtrip_reply r))
    [ Proto.Hello_reply { arch = "mips"; state = Proto.St_running; can_step = true };
      Proto.Hello_reply
        { arch = "vax"; state = Proto.St_stopped { signal = 5; code = 0; ctx_addr = 99 };
          can_step = false };
      Proto.Hello_reply { arch = "m68k"; state = Proto.St_exited 3; can_step = true };
      (* exit statuses are signed, as the process reports them *)
      Proto.Hello_reply { arch = "sparc"; state = Proto.St_exited (-1); can_step = true };
      Proto.Fetched "\xde\xad\xbe\xef";
      Proto.Stored;
      Proto.Event { signal = 11; code = 0x1234; ctx_addr = 0x1f0000 };
      (* u32 fields decode unsigned: the top bit is not a sign *)
      Proto.Event { signal = 0x80000000; code = 0xffffffff; ctx_addr = 0xfffffffc };
      Proto.Exit_event 0;
      Proto.Exit_event (-1);
      Proto.Core_chunk { total = 0; offset = 0; chunk = "" };
      Proto.Core_chunk { total = 9000; offset = 4096; chunk = String.make 2048 'x' };
      Proto.Cond_hit { signal = 5; code = 0; ctx_addr = 0x1f0000; suppressed = 12345 };
      Proto.Trace_chunk { total = 0; offset = 0; chunk = "" };
      Proto.Trace_chunk
        { total = 5000; offset = 2048; chunk = String.make Proto.max_trace_chunk 't' };
      Proto.Nub_error "no such space" ]

(** Out-of-range size fields are rejected with [Error], not served. *)
let test_decode_rejects_bad_sizes () =
  let fetch size =
    (* hand-built F frame: opcode, space, addr, size byte *)
    "Fd\x00\x20\x00\x00" ^ String.make 1 (Char.chr size)
  in
  (match Proto.decode_request (fetch 4) with
  | Ok (Proto.Fetch { size = 4; _ }) -> ()
  | _ -> Alcotest.fail "well-formed fetch should decode");
  List.iter
    (fun size ->
      match Proto.decode_request (fetch size) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "fetch size %d accepted" size)
    [ 0; 17; 255 ];
  match Proto.decode_request "Z" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown opcode accepted"

(** A [Set_cond] whose length field promises nothing (0) or more than
    {!Proto.max_cond_prog} is malformed at the protocol layer: it never
    reaches the bytecode decoder, let alone the verifier. *)
let test_decode_rejects_bad_cond_lengths () =
  let u32 v =
    String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))
  in
  let set_cond len body = "B" ^ u32 0x1000 ^ u32 len ^ body in
  (match Proto.decode_request (set_cond 1 "P") with
  | Ok (Proto.Set_cond { addr = 0x1000; prog = "P" }) -> ()
  | _ -> Alcotest.fail "well-formed Set_cond should decode");
  List.iter
    (fun len ->
      match Proto.decode_request (set_cond len (String.make (min len 4096) 'x')) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "condition length %d accepted" len)
    [ 0; Proto.max_cond_prog + 1; 0x100000 ]

let gen_request : Proto.request QCheck.arbitrary =
  QCheck.oneof
    [ QCheck.always Proto.Hello;
      QCheck.map
        (fun (addr, size, code_space) ->
          Proto.Fetch { space = (if code_space then 'c' else 'd'); addr; size })
        QCheck.(triple (int_bound 0xffffffff) (int_range 1 16) bool);
      QCheck.map
        (fun (addr, bytes) -> Proto.Store { space = 'd'; addr; bytes })
        QCheck.(pair (int_bound 0xffffffff)
                  (string_gen_of_size (QCheck.Gen.int_range 1 16) QCheck.Gen.char));
      QCheck.always Proto.Continue; QCheck.always Proto.Step;
      QCheck.always Proto.Kill; QCheck.always Proto.Detach;
      QCheck.map (fun offset -> Proto.Dump { offset }) QCheck.(int_bound 0xffffffff);
      QCheck.map
        (fun (addr, prog) -> Proto.Set_cond { addr; prog })
        QCheck.(pair (int_bound 0xffffffff)
                  (string_gen_of_size (QCheck.Gen.int_range 1 Proto.max_cond_prog)
                     QCheck.Gen.char));
      QCheck.map (fun addr -> Proto.Clear_cond { addr }) QCheck.(int_bound 0xffffffff) ]

(** Every request and reply constructor, and one frame, pinned to the
    bytes it encoded to when the layout was fixed. *)
let test_protocol_goldens () =
  let req name golden r = (name, golden, Proto.encode_request r) in
  let rep name golden r = (name, golden, Proto.encode_reply r) in
  Testkit.check_goldens
    [
      req "hello" "48" Proto.Hello;
      req "fetch" "46645634120004" (Proto.Fetch { space = 'd'; addr = 0x123456; size = 4 });
      req "store" "5363ffff00000401020304"
        (Proto.Store { space = 'c'; addr = 0xffff; bytes = "\x01\x02\x03\x04" });
      req "continue" "43" Proto.Continue;
      req "step" "54" Proto.Step;
      req "kill" "4b" Proto.Kill;
      req "detach" "44" Proto.Detach;
      req "dump" "5545230100" (Proto.Dump { offset = 0x12345 });
      req "set_cond" "4200100000050000005001000000"
        (Proto.Set_cond { addr = 0x1000; prog = "P\x01\x00\x00\x00" });
      req "clear_cond" "5100100000" (Proto.Clear_cond { addr = 0x1000 });
      req "record" "52a0860100" (Proto.Record { spacing = 100_000 });
      req "fetch_trace" "47efcdab00" (Proto.Fetch_trace { offset = 0xabcdef });
      rep "hello running" "687200000000000000000000000053040000006d697073"
        (Proto.Hello_reply { arch = "mips"; state = Proto.St_running; can_step = true });
      rep "hello stopped" "6873050000000000000000001f002d03000000766178"
        (Proto.Hello_reply
           { arch = "vax"; state = Proto.St_stopped { signal = 5; code = 0; ctx_addr = 0x1f0000 };
             can_step = false });
      rep "hello exited" "6878ffffffff000000000000000053040000006d36386b"
        (Proto.Hello_reply { arch = "m68k"; state = Proto.St_exited (-1); can_step = true });
      rep "fetched" "6604deadbeef" (Proto.Fetched "\xde\xad\xbe\xef");
      rep "stored" "61" Proto.Stored;
      rep "event" "650b0000003412000000001f00"
        (Proto.Event { signal = 11; code = 0x1234; ctx_addr = 0x1f0000 });
      rep "exit" "58ffffffff" (Proto.Exit_event (-1));
      rep "error" "4504000000626f6f6d" (Proto.Nub_error "boom");
      rep "core_chunk" "75282300000010000004000000636f7265"
        (Proto.Core_chunk { total = 9000; offset = 4096; chunk = "core" });
      rep "cond_hit" "6a050000000000000000001f0039300000"
        (Proto.Cond_hit { signal = 5; code = 0; ctx_addr = 0x1f0000; suppressed = 12345 });
      rep "trace_chunk" "746400000008000000020000007472"
        (Proto.Trace_chunk { total = 100; offset = 8; chunk = "tr" });
      ("frame", "f5db040302010300000038d3b829616263", Frame.seal ~seq:0x01020304 "abc");
    ]

let prop_request_roundtrip =
  Testkit.qtest "random requests roundtrip" ~count:500 gen_request roundtrip_request

(** Totality: the decoders return [Error] on junk, they never raise. *)
let prop_decode_never_raises =
  Testkit.qtest "decoders never raise on arbitrary bytes" ~count:1000
    QCheck.(string_gen QCheck.Gen.char)
    (fun s ->
      (match Proto.decode_request s with Ok _ | Error _ -> true)
      && (match Proto.decode_reply s with Ok _ | Error _ -> true))

(** Every strict prefix of a valid encoding is malformed — truncation is
    detected cleanly at any cut point. *)
let prop_truncation_detected =
  Testkit.qtest "every strict prefix decodes to Error" ~count:300 gen_request
    (fun r ->
      let enc = Proto.encode_request r in
      let ok = ref true in
      for n = 0 to String.length enc - 1 do
        (match Proto.decode_request (String.sub enc 0 n) with
        | Error _ -> ()
        | Ok _ -> ok := false)
      done;
      !ok)

(* --- frames ----------------------------------------------------------------- *)

let frame_testable : Frame.recv_status Alcotest.testable =
  Alcotest.testable
    (fun ppf -> function
      | `Frame f -> Fmt.pf ppf "Frame(seq %d, %S)" f.Frame.fr_seq f.Frame.fr_payload
      | `Corrupt m -> Fmt.pf ppf "Corrupt(%s)" m
      | `Incomplete -> Fmt.string ppf "Incomplete")
    (fun a b ->
      match (a, b) with
      | `Frame f, `Frame g -> f.Frame.fr_seq = g.Frame.fr_seq && f.Frame.fr_payload = g.Frame.fr_payload
      | `Corrupt _, `Corrupt _ -> true
      | `Incomplete, `Incomplete -> true
      | _ -> false)

let test_frame_roundtrip () =
  let a, b = Chan.pair () in
  Frame.send a ~seq:7 "payload bytes";
  check frame_testable "roundtrip" (`Frame { Frame.fr_seq = 7; fr_payload = "payload bytes" })
    (Frame.try_recv b);
  check frame_testable "drained" `Incomplete (Frame.try_recv b)

let test_frame_detects_corruption () =
  let sealed = Frame.seal ~seq:3 "precious cargo" in
  (* flip one bit in every position; the receiver must never deliver a
     damaged payload as a valid frame *)
  for i = 0 to String.length sealed - 1 do
    for bit = 0 to 7 do
      let mangled = Bytes.of_string sealed in
      Bytes.set mangled i (Char.chr (Char.code (Bytes.get mangled i) lxor (1 lsl bit)));
      let a, b = Chan.pair () in
      Chan.deliver a (Bytes.to_string mangled);
      match Frame.try_recv b with
      | `Frame { Frame.fr_seq = 3; fr_payload = "precious cargo" } ->
          Alcotest.failf "bit %d of byte %d: damaged frame accepted" bit i
      | `Frame f -> Alcotest.failf "byte %d: wrong frame decoded (seq %d)" i f.Frame.fr_seq
      | `Corrupt _ | `Incomplete -> ()
    done
  done

(** Garbage before a frame is skipped; the frame after it is recovered. *)
let test_frame_resync_after_garbage () =
  let a, b = Chan.pair () in
  Chan.deliver a "some leading junk with no magic";
  Frame.send a ~seq:9 "found me";
  check frame_testable "resync" (`Frame { Frame.fr_seq = 9; fr_payload = "found me" })
    (Frame.try_recv b)

(** A truncated frame followed by its retry: the receiver reports damage
    (possibly over several calls) but eventually yields the retry intact. *)
let test_frame_resync_after_truncation () =
  let a, b = Chan.pair () in
  let sealed = Frame.seal ~seq:4 "first try" in
  Chan.deliver a (String.sub sealed 0 (String.length sealed - 3));
  Frame.send a ~seq:4 "second try";
  let rec drain n =
    if n > 100 then Alcotest.fail "no frame recovered after truncation"
    else
      match Frame.try_recv b with
      | `Frame { Frame.fr_seq = 4; fr_payload = "second try" } -> ()
      | `Frame f -> Alcotest.failf "recovered wrong payload %S" f.Frame.fr_payload
      | `Corrupt _ -> drain (n + 1)
      | `Incomplete -> Alcotest.fail "gave up before recovering the retry"
  in
  drain 0

(** A length field claiming an absurd payload is damage, not a reason to
    wait forever. *)
let test_frame_bogus_length () =
  let a, b = Chan.pair () in
  let bogus = Testkit.frame_header Frame.codec ~seq:1 ~len:0x40000000 ~crc:0xdeadbeef in
  Chan.deliver a bogus;
  (match Frame.try_recv b with
  | `Corrupt _ -> ()
  | `Frame _ -> Alcotest.fail "bogus length accepted"
  | `Incomplete -> Alcotest.fail "bogus length stalls the stream");
  (* the stream recovers for the next real frame *)
  Frame.send a ~seq:2 "after the storm";
  let rec drain n =
    if n > 100 then Alcotest.fail "never recovered"
    else
      match Frame.try_recv b with
      | `Frame { Frame.fr_seq = 2; fr_payload = "after the storm" } -> ()
      | `Frame _ -> Alcotest.fail "wrong frame"
      | `Corrupt _ -> drain (n + 1)
      | `Incomplete -> Alcotest.fail "stalled"
  in
  drain 0

(* --- nub service ------------------------------------------------------------ *)

let stopped_nub arch =
  let proc = Proc.create (Target.of_arch arch) in
  let nub = Nub.create proc in
  proc.Proc.status <- Proc.Stopped (SIGTRAP, 0);
  Nub.save_context nub;
  let dbg, nubend = Chan.pair () in
  Nub.attach nub nubend;
  Chan.set_pump dbg (fun () -> Nub.pump nub);
  (proc, nub, dbg)

(* fresh sequence numbers across every test rpc; the nub only requires
   that they increase within one connection *)
let seq_counter = ref 0

let rpc dbg req =
  incr seq_counter;
  Frame.send dbg ~seq:!seq_counter (Proto.encode_request req);
  match Frame.recv dbg with
  | Ok f -> (
      match Proto.decode_reply f.Frame.fr_payload with
      | Ok r -> r
      | Error m -> Alcotest.failf "undecodable reply: %s" m)
  | Error m -> Alcotest.failf "corrupt reply frame: %s" m

(** Values travel little-endian regardless of target byte order. *)
let test_fetch_little_endian_wire () =
  List.iter
    (fun arch ->
      let proc, _, dbg = stopped_nub arch in
      Ram.set_u32 proc.Proc.ram 0x2000 0x11223344l;
      match rpc dbg (Proto.Fetch { space = 'd'; addr = 0x2000; size = 4 }) with
      | Proto.Fetched bytes ->
          check Alcotest.string
            (Arch.name arch ^ " wire value is little-endian")
            "\x44\x33\x22\x11" bytes
      | _ -> Alcotest.fail "bad reply")
    Arch.all

let test_store_roundtrip_all_archs () =
  List.iter
    (fun arch ->
      let proc, _, dbg = stopped_nub arch in
      (match rpc dbg (Proto.Store { space = 'd'; addr = 0x3000; bytes = "\x78\x56\x34\x12" }) with
      | Proto.Stored -> ()
      | _ -> Alcotest.fail "store failed");
      check Alcotest.int32 (Arch.name arch ^ " stored value") 0x12345678l
        (Ram.get_u32 proc.Proc.ram 0x3000))
    Arch.all

let test_hello () =
  let _, _, dbg = stopped_nub M68k in
  match rpc dbg Proto.Hello with
  | Proto.Hello_reply { arch = "m68k"; state = Proto.St_stopped { signal = 5; _ }; _ } -> ()
  | r -> Alcotest.failf "bad hello reply %s" (Fmt.str "%a" Proto.pp_reply r)

let test_bad_space_error () =
  let _, _, dbg = stopped_nub Vax in
  match rpc dbg (Proto.Fetch { space = 'q'; addr = 0; size = 4 }) with
  | Proto.Nub_error _ -> ()
  | _ -> Alcotest.fail "expected error for bad space"

(** At-most-once: retrying a request under the same sequence number gets
    the cached reply back, it does not re-execute.  (A re-executed
    [Store] is idempotent, so probe with a fetch of a location the retry
    mutates in between — if the nub re-executed, the second reply would
    differ.) *)
let test_duplicate_request_not_reexecuted () =
  let proc, _, dbg = stopped_nub Mips in
  Ram.set_u32 proc.Proc.ram 0x4000 1l;
  incr seq_counter;
  let seq = !seq_counter in
  let payload = Proto.encode_request (Proto.Fetch { space = 'd'; addr = 0x4000; size = 4 }) in
  Frame.send dbg ~seq payload;
  let r1 = Frame.recv dbg in
  (* mutate the fetched location, then replay the same request *)
  Ram.set_u32 proc.Proc.ram 0x4000 2l;
  Frame.send dbg ~seq payload;
  let r2 = Frame.recv dbg in
  match (r1, r2) with
  | Ok f1, Ok f2 ->
      check Alcotest.string "cached reply retransmitted, not re-executed"
        f1.Frame.fr_payload f2.Frame.fr_payload;
      check Alcotest.int "same seq" f1.Frame.fr_seq f2.Frame.fr_seq
  | _ -> Alcotest.fail "frame recv failed"

(** The per-seq reply cache is bounded, and a newer request acknowledges
    (and evicts) every entry below its sequence number: a long session
    cannot grow the nub's memory without limit, and replays that old are
    impossible anyway — the transport never reuses an acknowledged seq. *)
let test_reply_cache_bounded () =
  let _, nub, dbg = stopped_nub Mips in
  for _ = 1 to (3 * Nub.max_cached_replies) + 1 do
    match rpc dbg (Proto.Fetch { space = 'd'; addr = 0x4000; size = 4 }) with
    | Proto.Fetched _ -> ()
    | r -> Alcotest.failf "fetch failed: %s" (Fmt.str "%a" Proto.pp_reply r)
  done;
  Alcotest.(check bool) "cache within its bound" true
    (Nub.cached_replies nub <= Nub.max_cached_replies);
  (* each fresh request acknowledged its predecessors: steady state is
     exactly the in-flight entry *)
  check Alcotest.int "acknowledged entries evicted" 1 (Nub.cached_replies nub);
  (* the bound does not break at-most-once for the live request *)
  incr seq_counter;
  let seq = !seq_counter in
  let payload = Proto.encode_request (Proto.Fetch { space = 'd'; addr = 0x4000; size = 4 }) in
  Frame.send dbg ~seq payload;
  let r1 = Frame.recv dbg in
  Frame.send dbg ~seq payload;
  let r2 = Frame.recv dbg in
  match (r1, r2) with
  | Ok f1, Ok f2 ->
      check Alcotest.string "retransmit still served from cache" f1.Frame.fr_payload
        f2.Frame.fr_payload
  | _ -> Alcotest.fail "frame recv failed"

(** A corrupt request elicits a [Nub_error] reply (so the debugger's
    retry logic wakes up), never an exception in the nub. *)
let test_corrupt_request_gets_error_reply () =
  let _, _, dbg = stopped_nub Sparc in
  incr seq_counter;
  Frame.send dbg ~seq:!seq_counter "Zmalformed";
  match Frame.recv dbg with
  | Ok f -> (
      match Proto.decode_reply f.Frame.fr_payload with
      | Ok (Proto.Nub_error _) -> ()
      | r ->
          Alcotest.failf "expected Nub_error, got %s"
            (match r with Ok r -> Fmt.str "%a" Proto.pp_reply r | Error m -> m))
  | Error m -> Alcotest.failf "corrupt reply frame: %s" m

(** The SIM-MIPS kernel saves FP registers least-significant-word first;
    the nub swaps on 8-byte accesses to the saved-FP area, so the debugger
    sees a normal double. *)
let test_mips_fp_word_swap () =
  let proc = Proc.create (Target.of_arch Mips) in
  Cpu.set_freg proc.Proc.cpu 3 1.2345;
  let nub = Nub.create proc in
  proc.Proc.status <- Proc.Stopped (SIGTRAP, 0);
  Nub.save_context nub;
  let dbg, nubend = Chan.pair () in
  Nub.attach nub nubend;
  Chan.set_pump dbg (fun () -> Nub.pump nub);
  let t = Target.of_arch Mips in
  let addr = Nub.ctx_base + t.Target.ctx_freg_off 3 in
  (* raw words in memory are swapped (LSW first) *)
  let bits = Int64.bits_of_float 1.2345 in
  check Alcotest.int32 "LSW stored first" (Int64.to_int32 bits)
    (Ram.get_u32 proc.Proc.ram addr);
  (* ... but an 8-byte wire fetch sees a proper little-endian double *)
  match rpc dbg (Proto.Fetch { space = 'd'; addr; size = 8 }) with
  | Proto.Fetched bytes ->
      let v = Ldb_util.Endian.get_u64 Little (Bytes.of_string bytes) 0 in
      check (Alcotest.float 0.0) "double reassembled" 1.2345 (Int64.float_of_bits v)
  | _ -> Alcotest.fail "fetch failed"

let test_context_save_restore () =
  List.iter
    (fun arch ->
      let proc = Proc.create (Target.of_arch arch) in
      let nub = Nub.create proc in
      Cpu.set_reg proc.Proc.cpu 3 111l;
      Cpu.set_freg proc.Proc.cpu 1 9.5;
      Proc.set_pc proc 0x1234;
      proc.Proc.status <- Proc.Stopped (SIGTRAP, 0);
      Nub.save_context nub;
      (* clobber, then restore *)
      Cpu.set_reg proc.Proc.cpu 3 0l;
      Cpu.set_freg proc.Proc.cpu 1 0.0;
      Proc.set_pc proc 0;
      Nub.restore_context nub;
      let an = Arch.name arch in
      check Alcotest.int32 (an ^ " reg restored") 111l (Cpu.reg proc.Proc.cpu 3);
      check (Alcotest.float 0.0) (an ^ " freg restored") 9.5 (Cpu.freg proc.Proc.cpu 1);
      check Alcotest.int (an ^ " pc restored") 0x1234 (Proc.pc proc))
    Arch.all

(* --- conditional breakpoints (nub side) ------------------------------------- *)

module Bpcode = Ldb_nub.Bpcode

(** A verified program is stored; clearing forgets it. *)
let test_set_cond_stores_verified () =
  let _, nub, dbg = stopped_nub Mips in
  let prog = Bpcode.encode [| Bpcode.Push 1l |] in
  (match rpc dbg (Proto.Set_cond { addr = 0x1000; prog }) with
  | Proto.Stored -> ()
  | r -> Alcotest.failf "verified condition refused: %s" (Fmt.str "%a" Proto.pp_reply r));
  check Alcotest.int "condition installed" 1 (Nub.conditions nub);
  (match rpc dbg (Proto.Clear_cond { addr = 0x1000 }) with
  | Proto.Stored -> ()
  | _ -> Alcotest.fail "clear failed");
  check Alcotest.int "condition forgotten" 0 (Nub.conditions nub)

(** The nub re-runs the verifier on receipt: a decodable program with a
    backward jump is refused with a typed error, and nothing is stored —
    a hostile debugger cannot plant a loop in the target. *)
let test_set_cond_reverifies () =
  let _, nub, dbg = stopped_nub Sparc in
  let hostile = Bpcode.encode [| Bpcode.Push 1l; Bpcode.Jmp (-2) |] in
  (match rpc dbg (Proto.Set_cond { addr = 0x1000; prog = hostile }) with
  | Proto.Nub_error m ->
      Alcotest.(check bool) ("mentions verification: " ^ m) true
        (let sub = "unverified" in
         let nn = String.length sub in
         let rec go i =
           i + nn <= String.length m && (String.sub m i nn = sub || go (i + 1))
         in
         go 0)
  | r -> Alcotest.failf "hostile condition got %s" (Fmt.str "%a" Proto.pp_reply r));
  check Alcotest.int "nothing stored" 0 (Nub.conditions nub)

(** Bytes that do not decode as bytecode are refused before verification. *)
let test_set_cond_undecodable () =
  let _, nub, dbg = stopped_nub Vax in
  (match rpc dbg (Proto.Set_cond { addr = 0x1000; prog = "\xff\xfe\xfd" }) with
  | Proto.Nub_error _ -> ()
  | _ -> Alcotest.fail "undecodable condition accepted");
  check Alcotest.int "nothing stored" 0 (Nub.conditions nub)

(** Conditions belong to the debugger that shipped them: a reattach (new
    debugger instance) starts with an empty condition table. *)
let test_conds_reset_on_attach () =
  let _, nub, dbg = stopped_nub M68k in
  let prog = Bpcode.encode [| Bpcode.Push 1l |] in
  (match rpc dbg (Proto.Set_cond { addr = 0x2000; prog }) with
  | Proto.Stored -> ()
  | _ -> Alcotest.fail "set failed");
  check Alcotest.int "installed" 1 (Nub.conditions nub);
  Chan.disconnect dbg;
  let dbg2, nubend2 = Chan.pair () in
  Nub.attach nub nubend2;
  Chan.set_pump dbg2 (fun () -> Nub.pump nub);
  check Alcotest.int "reset on reattach" 0 (Nub.conditions nub)

(** A debugger crash must not lose target state: the nub keeps the
    process, and a new debugger instance can attach. *)
let test_reconnect_preserves_state () =
  let proc, nub, dbg1 = stopped_nub Sparc in
  Ram.set_u32 proc.Proc.ram 0x2000 4242l;
  (* debugger 1 "crashes" *)
  Chan.disconnect dbg1;
  (* a new debugger connects *)
  let dbg2, nubend2 = Chan.pair () in
  Nub.attach nub nubend2;
  Chan.set_pump dbg2 (fun () -> Nub.pump nub);
  (match rpc dbg2 Proto.Hello with
  | Proto.Hello_reply { state = Proto.St_stopped _; _ } -> ()
  | _ -> Alcotest.fail "state not preserved");
  match rpc dbg2 (Proto.Fetch { space = 'd'; addr = 0x2000; size = 4 }) with
  | Proto.Fetched "\x92\x10\x00\x00" -> ()
  | Proto.Fetched b -> Alcotest.failf "wrong bytes %S" b
  | _ -> Alcotest.fail "fetch after reconnect failed"

(** An instruction naming a register the target does not have, stored
    over the code at the stop, is a SIGILL event when the target runs,
    not an exception out of the nub. *)
let test_bad_register_sigill () =
  List.iter
    (fun arch ->
      let _, _, dbg = stopped_nub arch in
      let at = Ram.Layout.code_base in
      String.iteri
        (fun i c ->
          match rpc dbg (Proto.Store { space = 'c'; addr = at + i; bytes = String.make 1 c }) with
          | Proto.Stored -> ()
          | _ -> Alcotest.fail "store failed")
        (Target.encode (Target.of_arch arch) (Testkit.bad_register_insn arch));
      match rpc dbg Proto.Continue with
      | Proto.Event { signal; code; _ } ->
          check Alcotest.int (Arch.name arch ^ " signal") (Signal.number SIGILL) signal;
          check Alcotest.int (Arch.name arch ^ " code") at code
      | r -> Alcotest.failf "%s: %s" (Arch.name arch) (Fmt.str "%a" Proto.pp_reply r))
    Arch.all

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "nub"
    [
      ( "channels",
        [ case "pump" test_chan_pump;
          case "disconnect" test_chan_disconnect;
          case "timeout vs disconnect" test_chan_timeout_vs_disconnect;
          case "configurable deadline" test_chan_deadline ] );
      ( "protocol",
        [ case "requests" test_request_roundtrips; case "replies" test_reply_roundtrips;
          case "bad sizes rejected" test_decode_rejects_bad_sizes;
          case "bad condition lengths rejected" test_decode_rejects_bad_cond_lengths;
          case "goldens" test_protocol_goldens;
          prop_request_roundtrip; prop_decode_never_raises; prop_truncation_detected ] );
      ( "frames",
        [ case "roundtrip" test_frame_roundtrip;
          case "corruption detected" test_frame_detects_corruption;
          case "resync after garbage" test_frame_resync_after_garbage;
          case "resync after truncation" test_frame_resync_after_truncation;
          case "bogus length" test_frame_bogus_length ] );
      ( "service",
        [ case "hello" test_hello;
          case "fetch is little-endian on the wire" test_fetch_little_endian_wire;
          case "store on all targets" test_store_roundtrip_all_archs;
          case "bad space" test_bad_space_error;
          case "duplicate request not re-executed" test_duplicate_request_not_reexecuted;
          case "reply cache bounded, acks evict" test_reply_cache_bounded;
          case "corrupt request gets error reply" test_corrupt_request_gets_error_reply;
          case "mips fp word swap" test_mips_fp_word_swap;
          case "context save/restore" test_context_save_restore;
          case "set_cond stores verified programs" test_set_cond_stores_verified;
          case "set_cond re-verifies on receipt" test_set_cond_reverifies;
          case "set_cond refuses undecodable bytes" test_set_cond_undecodable;
          case "conditions reset on reattach" test_conds_reset_on_attach;
          case "reconnect preserves state" test_reconnect_preserves_state;
          case "bad register field is a SIGILL stop" test_bad_register_sigill ] );
    ]
