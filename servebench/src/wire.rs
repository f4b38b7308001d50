//! A minimal keep-alive HTTP/1.1 client: one write per request, one
//! buffered read per reply. Kept in the benchmark (not borrowed from the
//! server crate) so a change to the program cannot change the load.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// No reply within this long fails the request instead of hanging.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One keep-alive connection.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// The connect or socket-option error.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(64 * 1024, stream),
            line: String::new(),
        })
    }

    /// Sends one encoded request and reads the reply's status and body.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed replies.
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<(u16, String)> {
        self.writer.write_all(request)?;
        let status = {
            let line = self.read_line()?;
            line.split(' ')
                .nth(1)
                .and_then(|code| code.parse::<u16>().ok())
                .ok_or_else(|| invalid(format!("bad status line {line:?}")))?
        };
        let mut length = None;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| invalid("reply without content-length".into()))?;
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| invalid("non-UTF-8 body".into()))?;
        Ok((status, body))
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// See [`Conn::exchange`].
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.exchange(
            format!("GET {path} HTTP/1.1\r\nhost: mine\r\ncontent-length: 0\r\n\r\n").as_bytes(),
        )
    }

    fn read_line(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            ));
        }
        Ok(self.line.trim_end_matches(['\r', '\n']))
    }
}

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}
