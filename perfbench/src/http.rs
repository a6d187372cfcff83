//! A keep-alive HTTP client over one loopback connection.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use batchlens_serve::codec::{read_response, ClientResponse};

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            buf: Vec::new(),
        })
    }

    /// One request, sent as a single write; returns the response and the
    /// round trip from the first byte written to the last byte read.
    pub fn call(
        &mut self,
        method: &str,
        target: &str,
        body: &str,
    ) -> std::io::Result<(ClientResponse, Duration)> {
        self.buf.clear();
        write!(
            self.buf,
            "{method} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )?;
        let start = Instant::now();
        self.writer.write_all(&self.buf)?;
        let resp = read_response(&mut self.reader)
            .map_err(|e| std::io::Error::other(e.to_string()))?
            .ok_or_else(|| std::io::Error::other("connection closed by server"))?;
        Ok((resp, start.elapsed()))
    }
}

/// FNV-1a, to compare response bodies without keeping them.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
