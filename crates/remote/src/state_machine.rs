//! Tests of the per-call state machine of paper Fig. 2 as the Remote
//! Library runs it: the operation's OpenCL [`Event`] moved forward by the
//! connection's response dispatch.
//!
//! | Fig. 2 state | `Event` status |
//! |---|---|
//! | INIT | `Queued` |
//! | FIRST | `Submitted`, on the manager's `Enqueued` ack |
//! | BUFFER | the read payload's copy-out inside the `Completed` handler |
//! | COMPLETE / FAILED | `Complete` / `Failed` |
//!
//! Every test drives a real [`crate::Connection`] against a scripted
//! manager that answers in whatever order the test chooses.
//!
//! [`Event`]: bf_ocl::Event

#[cfg(test)]
mod tests {
    use bf_fpga::Payload;
    use bf_model::VirtualTime;
    use bf_ocl::{ClError, CommandType, Event, EventStatus};
    use bf_rpc::{DataRef, ErrorCode, Request, Response, ServerChannel};
    use proptest::prelude::*;

    use crate::connection::tests::{answer, scripted, submit, t};
    use crate::Connection;

    /// The edges of Fig. 2 as event statuses. The Remote Library never
    /// reports `Running`: the manager's completion carries the start
    /// instant instead.
    fn is_legal_transition(from: EventStatus, to: EventStatus) -> bool {
        use EventStatus::{Complete, Failed, Queued, Submitted};
        matches!(
            (from, to),
            (Queued, Submitted) | (Queued | Submitted, Complete | Failed)
        )
    }

    /// One manager response, by index: the `Enqueued` ack, a completion
    /// with a read payload to copy out (BUFFER), a bare completion, or an
    /// error.
    fn response(step: u8, at: VirtualTime) -> Response {
        match step {
            0 => Response::Enqueued,
            1 => Response::Completed {
                started_at: at,
                ended_at: at,
                data: Some(DataRef::Inline(vec![9u8; 4].into())),
            },
            2 => Response::Completed {
                started_at: at,
                ended_at: at,
                data: None,
            },
            _ => Response::Error {
                code: ErrorCode::OutOfBounds,
                message: "scripted".to_string(),
            },
        }
    }

    fn read(conn: &Connection, server: &ServerChannel) -> (Event, bf_rpc::RequestEnvelope) {
        submit(
            conn,
            server,
            CommandType::ReadBuffer,
            Request::EnqueueRead {
                queue: 1,
                buffer: 2,
                offset: 0,
                len: 4,
            },
        )
    }

    /// Returns once every response already sent has been dispatched: the
    /// completion stream is FIFO, so a fresh marker's completion is
    /// handled after all of them.
    fn settle(conn: &Connection, server: &ServerChannel) {
        let (fence, req) = submit(
            conn,
            server,
            CommandType::Marker,
            Request::Finish { queue: 1 },
        );
        answer(
            server,
            &req,
            t(0),
            Response::Completed {
                started_at: t(0),
                ended_at: t(0),
                data: None,
            },
        );
        fence.wait().expect("fence completes");
    }

    #[test]
    fn write_lifecycle() {
        let (conn, server) = scripted();
        let (write, req) = submit(
            &conn,
            &server,
            CommandType::WriteBuffer,
            Request::EnqueueWrite {
                queue: 1,
                buffer: 2,
                offset: 0,
                data: DataRef::Inline(vec![1u8; 8].into()),
            },
        );
        assert_eq!(write.status(), EventStatus::Queued);
        answer(&server, &req, t(10), Response::Enqueued);
        settle(&conn, &server);
        assert_eq!(write.status(), EventStatus::Submitted);
        assert_eq!(write.profile().submitted, Some(t(10)));
        answer(
            &server,
            &req,
            t(30),
            Response::Completed {
                started_at: t(20),
                ended_at: t(30),
                data: None,
            },
        );
        write.wait().expect("write completes");
        assert_eq!(write.status(), EventStatus::Complete);
        assert!(write.status().is_terminal());
        assert_eq!(
            write.observed_at(),
            Some(t(30) + conn.costs().control_hop())
        );
    }

    #[test]
    fn read_passes_through_buffer() {
        let (conn, server) = scripted();
        let (ok, req) = read(&conn, &server);
        answer(&server, &req, t(10), Response::Enqueued);
        answer(
            &server,
            &req,
            t(30),
            Response::Completed {
                started_at: t(20),
                ended_at: t(30),
                data: Some(DataRef::Inline(vec![1u8, 2, 3, 4].into())),
            },
        );
        ok.wait().expect("read completes");
        // The copy-out is charged to the instant the host observes.
        let costs = conn.costs();
        assert_eq!(
            ok.observed_at(),
            Some(t(30) + costs.control_hop() + costs.inbound_payload_cost(4))
        );
        assert_eq!(
            ok.take_payload(),
            Ok(Payload::Data(vec![1u8, 2, 3, 4].into()))
        );

        // A copy-out that cannot be done fails the read instead.
        let (bad, req) = read(&conn, &server);
        answer(
            &server,
            &req,
            t(30),
            Response::Completed {
                started_at: t(20),
                ended_at: t(30),
                data: Some(DataRef::Shm { offset: 0, len: 4 }),
            },
        );
        assert!(matches!(bad.wait(), Err(ClError::TransportFailure(_))));
        assert_eq!(bad.status(), EventStatus::Failed);
    }

    #[test]
    fn completion_without_ack_is_accepted() {
        // The Enqueued ack and the completion race on the wire; the event
        // must tolerate the completion arriving first.
        let (conn, server) = scripted();
        let (launch, req) = submit(
            &conn,
            &server,
            CommandType::NdRangeKernel,
            Request::EnqueueKernel {
                queue: 1,
                kernel: 3,
                work: [4, 1, 1],
            },
        );
        answer(&server, &req, t(30), response(2, t(30)));
        answer(&server, &req, t(10), Response::Enqueued); // late ack ignored
        settle(&conn, &server);
        assert_eq!(launch.status(), EventStatus::Complete);
        assert_eq!(launch.profile().submitted, None);
    }

    #[test]
    fn terminal_states_absorb_everything() {
        let (conn, server) = scripted();
        let (write, req) = submit(
            &conn,
            &server,
            CommandType::WriteBuffer,
            Request::EnqueueWrite {
                queue: 1,
                buffer: 2,
                offset: 0,
                data: DataRef::Inline(vec![1u8; 8].into()),
            },
        );
        answer(&server, &req, t(10), response(3, t(10)));
        let failure = Err(ClError::OutOfBounds("scripted".to_string()));
        assert_eq!(write.wait(), failure);
        // Whatever the manager says afterwards changes nothing.
        for step in [0, 1, 2] {
            answer(&server, &req, t(20), response(step, t(20)));
        }
        answer(
            &server,
            &req,
            t(20),
            Response::Error {
                code: ErrorCode::Internal,
                message: "second".to_string(),
            },
        );
        settle(&conn, &server);
        // Nor does any runtime-side transition applied to the event itself.
        write.mark_submitted(t(40));
        write.complete_at(t(40), t(41), t(42), None);
        write.fail(ClError::TransportFailure("late".to_string()));
        assert_eq!(write.status(), EventStatus::Failed);
        assert_eq!(write.wait(), failure);
        assert_eq!(write.profile().submitted, None);
        assert_eq!(write.observed_at(), None);

        // A completed operation absorbs a late failure the same way.
        let (launch, req) = submit(
            &conn,
            &server,
            CommandType::NdRangeKernel,
            Request::EnqueueKernel {
                queue: 1,
                kernel: 3,
                work: [4, 1, 1],
            },
        );
        answer(&server, &req, t(30), response(2, t(30)));
        launch.wait().expect("kernel completes");
        answer(&server, &req, t(40), response(3, t(40)));
        settle(&conn, &server);
        launch.fail(ClError::TransportFailure("late".to_string()));
        assert_eq!(launch.status(), EventStatus::Complete);
        assert_eq!(launch.wait(), Ok(()));
    }

    #[test]
    fn machine_state_is_monotone_under_any_response_order() {
        // Exhaustive over all 4^5 response sequences: the observed status
        // sequence never regresses and at most one terminal is reached.
        let (conn, server) = scripted();
        for seq in 0..4u32.pow(5) {
            let (event, req) = read(&conn, &server);
            let mut prev = event.status();
            let mut terminal: Option<EventStatus> = None;
            for step in 0..5 {
                let at = t(10 * (step as u64 + 1));
                answer(
                    &server,
                    &req,
                    at,
                    response(((seq >> (2 * step)) & 3) as u8, at),
                );
                settle(&conn, &server);
                let status = event.status();
                assert!(status >= prev, "regressed in seq {seq}");
                prev = status;
                if status.is_terminal() {
                    assert_eq!(
                        *terminal.get_or_insert(status),
                        status,
                        "terminal flipped in seq {seq}"
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn random_interleavings_never_produce_illegal_transitions(
            seq in proptest::collection::vec(0u8..4, 0..16),
        ) {
            // Whatever order acks, buffered reads, completions and errors
            // arrive in, every observed status change is a Fig. 2 edge.
            let (conn, server) = scripted();
            let (event, req) = read(&conn, &server);
            let mut prev = event.status();
            for (i, step) in seq.into_iter().enumerate() {
                let at = t(10 * (i as u64 + 1));
                answer(&server, &req, at, response(step, at));
                settle(&conn, &server);
                let status = event.status();
                prop_assert!(
                    status == prev || is_legal_transition(prev, status),
                    "illegal {prev:?} -> {status:?}",
                );
                prev = status;
            }
        }
    }
}
